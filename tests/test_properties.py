"""
Randomized implication suites: seed-fixed (GEOQ_SEED), at least 200
instances per suite, zero violations expected.
"""

import os
import random

import pytest

from geoq import lemmas

COUNT = int(os.environ.get("GEOQ_PROP_COUNT", "200"))
SEED = lemmas.seed_from_env()

# require a healthy number of hypothesis-true draws so the implication
# suites cannot silently go vacuous
MIN_NONVACUOUS = {
    "cover-semiregular": 40,
    "flagslift-tq2prime-tq2doubleprime": 80,
    "distance4-cover": 100,
    "tq3-tq1-pq1-flagslift": 100,
}


@pytest.mark.parametrize("suite", lemmas.ALL_SUITES,
                         ids=lambda s: s.__name__)
def test_suite(suite):
    rng = random.Random("%d:%s" % (SEED, suite.__name__))
    res = suite(rng, COUNT)
    assert res.checked >= COUNT
    floor = MIN_NONVACUOUS.get(res.name, COUNT // 4)
    assert res.nonvacuous >= min(floor, COUNT), res.line()
    assert res.violations == [], res.line()


def test_suites_are_deterministic():
    a = lemmas.run_all_suites(seed=SEED, count=15)
    b = lemmas.run_all_suites(seed=SEED, count=15)
    assert [r.line() for r in a] == [r.line() for r in b]


def test_draws_are_streamed():
    # each instance reaches its check before the next is drawn, so a
    # suite holds one instance at a time; None draws are retried
    made = []

    def maker(rng):
        made.append(rng.random())
        return None if len(made) % 2 else len(made)

    draws = lemmas._draw(random.Random(0), maker, 3)
    assert next(draws) == 2 and len(made) == 2
    assert list(draws) == [4, 6] and len(made) == 6
    with pytest.raises(RuntimeError):
        list(lemmas._draw(random.Random(0), lambda rng: None, 2))
