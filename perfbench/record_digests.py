"""Record the eval report-body digests that ``run.py`` checks against.

    python3 perfbench/record_digests.py 0 99

Run from the repository root on a commit whose report bodies are the
reference. For each seed in the range it builds the ``eval`` and
``eval-http`` inputs and runs ``chunkkit eval`` offline with the n-gram
scorer; the ``eval-http`` digest is the offline one, because a scorer
served over HTTP must give the same report body. Writes digests.json.
"""

import json
import os
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def main() -> None:
    first, last = int(sys.argv[1]), int(sys.argv[2])
    root = Path.cwd()
    sys.path[:0] = [str(root / "src"), str(BENCH)]
    import corpus
    import run
    from chunkkit import cli

    digests = {"eval": {}, "eval-http": {}}
    work = root / ".perfbench_work" / f"digests-{os.getpid()}"
    try:
        for seed in range(first, last + 1):
            for workload in digests:
                shutil.rmtree(work, ignore_errors=True)
                corpus.build(workload, seed, work)
                corpus.write_config("eval", work)  # offline scorer for both
                argv = list(run.COMMANDS[workload][0])
                argv[argv.index("--concurrency") + 1] = "1"
                os.chdir(work)
                try:
                    cli.main.main(args=argv, prog_name="chunkkit", standalone_mode=False)
                finally:
                    os.chdir(root)
                digests[workload][str(seed)] = run.report_digest(work / "report.jsonl")
            print(f"seed {seed} recorded", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(work.parent.iterdir()):
            work.parent.rmdir()
    (BENCH / "digests.json").write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
