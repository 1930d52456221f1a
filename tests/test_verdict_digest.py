"""A tier-1 guard on checker verdicts: a small subset of
``tools/verdict_digest.py``'s cases, pinned to its digest.

The subset is the unmutated fuzz seeds 0-9 and every mutant on seeds 0-3,
each checked under both orders; it takes about a second, the full digest
about 12 s.  A change that must keep behaviour keeps this value.  A change
that alters verdicts on purpose re-pins it (and the full digest quoted in
ROADMAP.md) and says so in CHANGES.md.
"""

import pathlib
import sys

TOOLS = pathlib.Path(__file__).resolve().parent.parent / "tools"

PINNED = (
    "30 cases, 340 failing reports,"
    " sha256 b428f7ee0029d7b2fe70c67e0af5b69d770e294e6e8ec2a22195de9572dfa7d6"
)


def test_verdicts_on_the_small_subset_are_pinned():
    sys.path.insert(0, str(TOOLS))
    try:
        import verdict_digest
    finally:
        sys.path.remove(str(TOOLS))

    def small(config):
        mutated = config.cpmm_mutation or config.fa12_mutation
        return config.blocks == 10 and config.seed < (4 if mutated else 10)

    subset = [(label, c) for label, c in verdict_digest.cases() if small(c)]
    assert verdict_digest.digest(subset) == PINNED
