"""One measured run of the program in a fresh interpreter.

    python3 child.py RESULT_JSON TRACE CLI_ARGS...

Imports the program (the set-up every CLI user pays), then calls
``bohmctx.cli.main(CLI_ARGS)`` once.  With TRACE=1 the layer wrappers of
``tracer.py`` are installed around that call and removed after it.  Writes
timings, resource usage and, when traced, self times and counts to
RESULT_JSON.  The caller puts the program's ``src`` directory on PYTHONPATH.
"""

import json
import platform
import resource
import sys
import time


def main(argv) -> int:
    result_path, trace, cli_args = argv[0], argv[1] == "1", argv[2:]
    from bohmctx import _kernels, cli
    ready = time.monotonic()

    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    if trace:
        from tracer import ROOT_LAYER, Tracer
        tracer = Tracer()
        with tracer.installed():
            code = tracer.wrap(ROOT_LAYER, cli.main)(cli_args)
    else:
        code = cli.main(cli_args)
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)

    import numpy
    import scipy
    result = {
        "ready_monotonic": ready,
        "exit_code": code,
        "wall_s": wall,
        "cpu_s": (after.ru_utime + after.ru_stime
                  - before.ru_utime - before.ru_stime),
        "peak_rss_mb": after.ru_maxrss * 1024 / 1e6,  # ru_maxrss is in KiB
        "versions": {"backend": _kernels.ACTIVE_BACKEND,
                     "python": platform.python_version(),
                     "numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if trace:
        result.update(self_s=tracer.self_times(), counts=dict(tracer.counts),
                      traced_wall_s=tracer.total(ROOT_LAYER),
                      run_scenario_s=tracer.total("scenarios"))
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
