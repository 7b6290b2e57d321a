"""Fresh-interpreter probes for the benchmark.

    python3 perfbench/probe.py SRC setup
        import ecloner.cli and build its parser, then exit (timed by the caller)
    python3 perfbench/probe.py SRC run OUTPUT ARG...
        run one `ecloner` invocation writing to OUTPUT; print its exit code (null
        when it raised) and this process's peak RSS as JSON
"""

import json
import resource
import sys
import traceback


def main():
    src, mode = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    import ecloner.cli as cli

    if mode == "setup":
        cli.build_parser()
        return 0
    output, argv = sys.argv[3], sys.argv[4:]
    try:
        code = cli.main(argv + ["--output", output])
    except SystemExit as exc:
        code = exc.code
    except Exception:
        traceback.print_exc()
        code = None
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"exit": code, "peak_rss_kb": peak_kb}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
