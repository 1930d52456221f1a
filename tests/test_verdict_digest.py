"""A tier-1 guard on checker verdicts and on the generator: a small subset
of ``tools/verdict_digest.py``'s cases, pinned to both of its digests.

The subset is the unmutated fuzz seeds 0-9 and every mutant on seeds 0-3,
each checked under both orders; it takes about a second, the full digest
about 12 s.  Run in reverse or interleaved order the subset gives the same
line.  A change that must keep behaviour keeps these values.  A change
that alters verdicts or generated actions on purpose re-pins them (and the
full digest quoted in ROADMAP.md) and says so in CHANGES.md.
"""

import pathlib
import sys

import pytest

TOOLS = pathlib.Path(__file__).resolve().parent.parent / "tools"

PINNED = (
    "30 cases, 340 failing reports,"
    " sha256 b428f7ee0029d7b2fe70c67e0af5b69d770e294e6e8ec2a22195de9572dfa7d6"
)
PINNED_ACTIONS = (
    "30 cases, 425 fuzzed actions,"
    " sha256 e0e80233a413688e135a5f2bceef699f5bd01c3ba00553d68024123c64962c36"
)


def _verdict_digest():
    sys.path.insert(0, str(TOOLS))
    try:
        import verdict_digest
    finally:
        sys.path.remove(str(TOOLS))
    return verdict_digest


def _small_subset(verdict_digest):
    def small(config):
        mutated = config.cpmm_mutation or config.fa12_mutation
        return config.blocks == 10 and config.seed < (4 if mutated else 10)

    return [(label, c) for label, c in verdict_digest.cases() if small(c)]


def test_verdicts_on_the_small_subset_are_pinned():
    verdict_digest = _verdict_digest()
    assert verdict_digest.digest(_small_subset(verdict_digest)) == PINNED


def test_fuzzed_actions_on_the_small_subset_are_pinned():
    # Verdicts see only what commits; this sees every drawn action, rejected or not.
    verdict_digest = _verdict_digest()
    assert verdict_digest.action_digest(_small_subset(verdict_digest)) == PINNED_ACTIONS


@pytest.mark.parametrize("arrangement", ["reversed", "interleaved"])
def test_verdicts_do_not_depend_on_the_order_traces_run_in(arrangement):
    # Mutant and unmutated traces share one process and so one wiring memo:
    # a memo key that missed a mutation would hand one the other's contracts.
    verdict_digest = _verdict_digest()
    subset = _small_subset(verdict_digest)
    n = len(subset)
    if arrangement == "reversed":
        run_order = list(reversed(range(n)))
    else:  # the first half alternates with the second: unmutated next to mutant
        run_order = [i for pair in zip(range(n // 2), range(n // 2, n)) for i in pair]
    assert sorted(run_order) == list(range(n))
    assert verdict_digest.digest(subset, run_order) == PINNED
