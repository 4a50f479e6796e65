"""Time one cold set-up in a fresh interpreter and print it as JSON.

Run by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``.  The argument is a JSON object with ``overrides`` (CLI-style
config overrides), ``checkpoint`` (a path or null) and ``world`` (build
the simulator world too).  Set-up is ``import myerson_airnet`` plus the
input preparation a command does before its first auction:
``build_config``, ``load_params`` and ``generate_world``.
"""

import json
import sys
from time import perf_counter


def main() -> int:
    spec = json.loads(sys.argv[1])
    t0 = perf_counter()
    import myerson_airnet
    t1 = perf_counter()
    cfg = myerson_airnet.build_config(None, spec["overrides"])
    t2 = perf_counter()
    if spec["checkpoint"] is not None:
        myerson_airnet.load_params(spec["checkpoint"])
    t3 = perf_counter()
    if spec["world"]:
        myerson_airnet.generate_world(cfg.world)
    t4 = perf_counter()
    print(json.dumps({"package": myerson_airnet.__file__, "import_s": t1 - t0,
                      "build_s": t2 - t1, "load_s": t3 - t2, "world_s": t4 - t3,
                      "total_s": t4 - t0}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
