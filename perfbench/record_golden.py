"""Record the benchmark's golden outputs from the current code.

    python3 perfbench/record_golden.py

Writes perfbench/golden.json: the sha256 of the text and JSON report bytes
and the exit code of every bundled model, and the check_double,
structural_diagnostics and core-algebroid lines of each ladder rung.  Run
it only when a change alters reports on purpose, and say which.
"""

import json

import workloads


def main() -> None:
    golden = {"corpus": workloads.corpus_golden(), "ladder": workloads.ladder_golden()}
    for model, formats in golden["corpus"].items():
        expect = 0 if model.endswith(".pass") else 1
        for fmt, entry in formats.items():
            if entry["exit"] != expect:
                raise SystemExit(f"{model} --format {fmt} exits {entry['exit']}, not {expect}")
    workloads.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
