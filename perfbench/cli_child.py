"""One traced dyuch CLI request in a fresh process.

    python3 perfbench/cli_child.py TRACE_OUT CLI_ARGS...

Times `import dyuch.cli`, installs the same wrappers as the in-process
traced runs, calls `dyuch.cli.main(CLI_ARGS)` and writes the spans and
counters, with the kernel cache counts of this cold process, to TRACE_OUT.
Prints what the CLI prints and exits with its code.
"""
import sys
import time

import tracing


def main():
    trace_out, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import dyuch.cli
    tracer = tracing.Tracer()
    tracer.record("cli.import", start, time.perf_counter())
    tracer.install()
    try:
        code = dyuch.cli.main(argv)
    finally:
        tracer.uninstall()
    tracer.add_cache_delta((0, 0, 0), tracer.kernel_cache())
    tracer.write(trace_out)
    return code


if __name__ == "__main__":
    sys.exit(main())
