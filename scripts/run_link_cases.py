#!/usr/bin/env python3
"""Run all five Sarkisov center cases and print their transcripts.

With --write-golden the transcripts are written to the package's golden
directory (used to refresh the self-test baselines after an intentional
format change).
"""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from qfano import sarkisov  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args()
    golden_dir = pathlib.Path(__file__).resolve().parents[1] / "src" / "qfano" / "golden"
    for name in (case.lower() for case in sarkisov.CASES):
        text = sarkisov.run_case(name).text()
        if args.write_golden:
            (golden_dir / f"{name}.txt").write_text(text, encoding="utf-8")
            print(f"wrote golden/{name}.txt ({len(text)} bytes)")
        else:
            sys.stdout.write(text)
            print("-" * 72)
    return 0


if __name__ == "__main__":
    sys.exit(main())
