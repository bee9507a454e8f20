"""The benchmark's own tests; run them with `python3 perfbench/run.py --selftest`.

1. Every workload reports zero failed operations on the default seed and on
   the held-out second seed.
2. A traced run reproduces every fingerprint and virtual-time value of its
   untraced phase (the decorators and wrappers change nothing) and reports
   zero failed operations.
3. Every run reports exactly the metrics BENCHMARK.json lists for its mode,
   in their units, with no end-to-end metric at 0.
4. Corrupting one reference fingerprint is reported as exactly one failed
   operation and an incorrect run.

Each run is short (--seconds 2), so the whole suite takes a few minutes.
"""

import json

DEFAULT_SEED = 1
HELD_OUT_SEED = 2006
SHORT_SECONDS = 2


def result_of(code, out):
    if code != 0 or not out.strip():
        raise AssertionError(f"run exited with {code}")
    return json.loads(out.strip().splitlines()[-1])


def main(run, workloads, result_problem):
    failures = []

    def expect(cond, what):
        print(("ok   " if cond else "FAIL ") + what, flush=True)
        if not cond:
            failures.append(what)

    for w in workloads:
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            code, out = run(w, seed, SHORT_SECONDS, 0)
            r = result_of(code, out)
            expect(r["correct"] and r["failed"] == 0 and r["attempted"] > 0,
                   f"{w} seed {seed}: {r['attempted']} attempted, "
                   f"{r['failed']} failed")
            problem = result_problem(out, 0)
            expect(not problem, f"{w} seed {seed}: metrics as listed in "
                                f"BENCHMARK.json ({problem or 'all'})")

        code, out = run(w, DEFAULT_SEED, SHORT_SECONDS, 1)
        r = result_of(code, out)
        m = r["metrics"]
        expect(m.get("bench.trace_mismatches", {}).get("value") == 0,
               f"{w} traced: fingerprints and virtual times unchanged")
        expect(r["correct"] and r["failed"] == 0,
               f"{w} traced: {r['failed']} failed of {r['attempted']}")
        problem = result_problem(out, 1)
        expect(not problem, f"{w} traced: metrics as listed in "
                            f"BENCHMARK.json ({problem or 'all'})")

        r = result_of(*run(w, DEFAULT_SEED, SHORT_SECONDS, 0, flip_check=0))
        expect(r["failed"] == 1 and not r["correct"],
               f"{w}: one flipped reference fingerprint -> "
               f"{r['failed']} failed, correct={r['correct']}")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0
