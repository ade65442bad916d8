"""The benchmark's workloads: fixed lists of diagalg CLI configurations.

A pass runs a workload's configurations one after another, each in its own
process (a closed loop with one client).  The benchmark seed is forwarded to
every configuration as ``--seed``.  The README commands are a correctness
pre-flight: they run once per benchmark run, untimed, with their own
arguments, and their report digests are always checked.

A pass is kept to about ten seconds, so that a run of ``run_seconds`` holds
three passes and reports their median.  That is why the slowest
configurations are left out: walled(3,3) split pairs (over 500 s at l=1),
Brauer n=5 split pairs (over 180 s at l=2), and the 20 s Brauer n=4 l=0
split pair over Q.
"""

WORKLOADS = {
    "inflation-q": {
        "why": "verify-inflation over Q: diagram products and the layer checks "
               "do the work, outside the FinAlgebra product cache",
        "configs": [
            # dim 945: the only configuration on the sampled path, so the seed matters
            "verify-inflation --kind abrauer --n 5 --delta 2",
            # Z/2 labels: input-algebra label products and wreath algebras
            "verify-inflation --kind cyclotomic --n 3 --deltas 1,1",
            "verify-inflation --kind walled --r 2 --t 2",
        ],
    },
    "split-pair-q": {
        "why": "verify-split-pair over Q: Echelon inserts, Hom solves and the "
               "split-pair stages, with diagram products read through the cache",
        "configs": [
            "verify-split-pair --kind walled --r 3 --t 2 --l 1",
            "verify-split-pair --kind abrauer --n 4 --l 1 --delta 2",
            "verify-split-pair --kind abrauer --n 3 --l 0 --delta 2",
            "verify-split-pair --kind abrauer --n 3 --l 1 --delta 0 --delta-zero-mode",
        ],
    },
    "homext-fp": {
        "why": "Specht modules, presentations and Ext^1 over prime fields: int "
               "arithmetic, so Fraction-only changes should not move it",
        "configs": [
            "dominance-table --r 3 --t 2 --l 1 --field fp:5",
            "dominance-table --r 2 --t 3 --l 0 --field fp:7",
            "hom-ext --kind abrauer --n 4 --l 1 --delta 2 --field fp:5",
            # the F_5 twin of the first split-pair-q configuration
            "verify-split-pair --kind walled --r 3 --t 2 --l 1 --field fp:5",
        ],
    },
}

README_COMMANDS = [
    "dims --kind abrauer --n 3 --input-algebra trivial --delta 1",
    "verify-inflation --kind cyclotomic --n 2 --deltas 1,1",
    "verify-split-pair --kind walled --r 2 --t 2 --l 1 --field q --delta 1",
    "verify-split-pair --kind abrauer --n 3 --l 1 --delta 0 --delta-zero-mode",
    "hom-ext --kind walled --r 2 --t 2 --l 0 --field fp:5",
    "--format csv dominance-table --r 2 --t 2 --l 0 --field fp:5",
    "validate-input-algebra --deltas 2,1,1",
]

# Reports are pinned at this seed; other seeds check exit status and "ok" only.
DEFAULT_SEED = 0
