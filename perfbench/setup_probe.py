"""Time one set-up in a fresh process: ``import semec`` and load a scenario.

Usage: python3 setup_probe.py SRC_DIR SCENARIO_JSON

Prints the seconds from before ``import semec`` until the scenario is built.
The clock starts before numpy is imported, because importing semec pays it.
"""

import sys
import time


def main() -> None:
    src, scenario = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    start = time.perf_counter()
    import semec.bench

    semec.bench.load_scenario(scenario)
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main()
