"""Run one focalclass CLI command under cProfile and save the statistics.

Usage: python cli_profile.py STATS_FILE [focalclass arguments...]

The traced cli_session run starts every child through this file; the
profile covers the imports as well as the command itself.
"""

import cProfile
import sys


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    sys.argv = ["focalclass"] + argv
    prof = cProfile.Profile()
    prof.enable()
    try:
        from focalclass.cli import main as cli_main

        code = cli_main(argv)
    finally:
        prof.disable()
        prof.dump_stats(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
