"""One workload pass in a fresh process; prints its record as one JSON line.

``run.py`` starts this script once per pass with BLAS pinned to one thread.
The clock starts before numpy and the library are imported, so a pass's
wall time includes the import a user of the commands pays on every run.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402

from _source import add_checkout_source  # noqa: E402


def _versions() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    add_checkout_source()
    import workloads

    result = workloads.run_pass(
        workloads.WORKLOADS[args.workload], args.seed, T0, workloads.load_reference(),
        traced=bool(args.trace),
    )
    result["versions"] = _versions()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
