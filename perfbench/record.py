"""Regenerate perfbench/recorded.json from the library as it stands.

    python3 perfbench/record.py

Records, for outputs that have no independent oracle, what the seed
commit of the benchmark produced: the ``examined`` count and outcome of
every omit-search problem, and the exit code and stdout SHA-256 of every
fixed-pool CLI call.  Run it only to extend the pool; a library change
must reproduce the recorded values, not re-record them.
"""

import hashlib
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import harness  # noqa: E402
import workloads  # noqa: E402
from pavelka import (SearchSpace, Theory, TypeSet, Vocabulary,  # noqa: E402
                     parse_formula, search_model)


def omit_search():
    out = {}
    for name, (preds, consts, size, truth, met, theory, types) in \
            workloads.PROBLEMS.items():
        vocab = Vocabulary(preds, {c: 0 for c in consts})
        outcome = search_model(
            SearchSpace(vocab, size, truth, met),
            Theory("t", tuple(parse_formula(t, vocab) for t in theory)),
            [TypeSet(f"s{i}", ("x",), tuple(parse_formula(t, vocab)
                                            for t in texts))
             for i, texts in enumerate(types)])
        out[name] = {"examined": outcome.examined,
                     "exhausted": outcome.exhausted}
    return out


def cli_pool():
    work = os.path.join(ROOT, ".perfbench-work-record")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    env.pop("PAVELKA_WORKERS", None)
    out = {}
    try:
        for entries in workloads.write_pool(work).values():
            for ident, args in entries:
                code, stdout, _, _ = harness.run_child(
                    [sys.executable, "-m", "pavelka.cli"] + args, work, env,
                    os.path.join(work, "stderr.txt"))
                out[ident] = {"exit": code,
                              "sha256": hashlib.sha256(stdout).hexdigest()}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return out


def main():
    data = {"omit-search": omit_search(), "cli-batch": cli_pool()}
    with open(os.path.join(HERE, "recorded.json"), "w", encoding="utf-8") as f:
        json.dump(data, f, indent=1, sort_keys=True)
        f.write("\n")
    print(json.dumps(data, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
