"""Digest of every benchmark answer, for comparing two checkouts.

    python3 /path/to/scripts/answer_digest.py 1 2 3 > digest.txt

Run from the root of a checkout: the package is imported from its src/ and
the workloads from its perfbench/workloads.py, which is used as it is.
Solves every instance of the three workloads once per seed given (default
1 2 3) and prints one line per solve:

    <workload> <seed> <instance> <sha256 of the pickled answer> <user oracle calls> <separation calls> <leverage kernel calls>

A solve that raises prints the exception's type in place of the hash.  Two
checkouts whose outputs are equal gave byte-identical answers and counts.
The leverage kernel runs once per point the cutting-plane loop visits, so
its count is the cost of the centering step rule, per instance.
"""

import hashlib
import os
import pickle
import sys

# one BLAS thread, as in perfbench/run.py
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"


def main(argv):
    seeds = [int(s) for s in argv] or [1, 2, 3]
    root = os.getcwd()
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    import workloads
    from cutplane import core

    counter = workloads.SeparationCounter()
    counter.install()
    kernel = core.leverage_exact
    kernel_calls = [0]

    def counted_kernel(*args):
        kernel_calls[0] += 1
        return kernel(*args)

    core.leverage_exact = counted_kernel
    for name, (build, _) in workloads.WORKLOADS.items():
        for seed in seeds:
            for inst in build(seed):
                counter.calls = kernel_calls[0] = 0
                try:
                    answer, user_calls = inst.run()
                except Exception as exc:  # reported in the digest line
                    digest, user_calls = type(exc).__name__, "-"
                else:
                    digest = hashlib.sha256(pickle.dumps(answer)).hexdigest()
                print(name, seed, inst.name, digest, user_calls, counter.calls,
                      kernel_calls[0], flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
