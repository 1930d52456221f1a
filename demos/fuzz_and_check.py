"""Run a small fuzzing campaign and watch the checkers work.

First a clean campaign where every invariant holds under both dispatch
orders, then the same campaign against a deliberately broken contract
(the default entrypoint pockets donations without crediting xtzPool) to
show the tez-pool checker catching it.

Run with: python3 demos/fuzz_and_check.py
"""

from dexsim.checks import check_order_robustness, run_all_checks, summarize
from dexsim.harness import ScenarioConfig, gen_trace


def campaign(label, seeds, **config_kw):
    print(f"== {label} ==")
    caught = None
    for seed in range(seeds):
        trace = gen_trace(ScenarioConfig(seed=seed, blocks=10, **config_kw))
        reports = run_all_checks(trace)
        _, other = check_order_robustness(trace)
        summary = summarize(reports + other)
        bad = [r for r in summary.values() if not r.passed]
        if bad and caught is None:
            caught = seed
            for r in bad:
                print(f"  seed {seed}: {r.name} FAILED")
                shown = r.violations[:2]
                for v in shown:
                    print(f"    {v}")
                if r.count > len(shown):
                    print(f"    … {r.count - len(shown)} more")
    if caught is None:
        print(f"  {seeds} seeds, every checker passed under both orders")
    print()


def main():
    campaign("honest contracts", seeds=20)
    campaign("mutated: default keeps donations", seeds=5, mutation="default_no_credit")
    campaign("mutated: anyone may mint", seeds=5, mutation="open_mint_or_burn")


if __name__ == "__main__":
    main()
