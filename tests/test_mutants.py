"""The mutation table of tests/mutants.py is well formed: ids are
unique, each snippet occurs exactly once in today's source and differs
from its replacement, each named test file exists, and an equivalent
mutant gives its reason.  The table keeps at least 40 rows, with one or
more in each of quotient, axioms, perms, geometry, diagram, cosets and
lemmas.  No mutant runs here: `python tests/mutants.py` runs them."""

from mutants import MUTANTS, ROOT, SRC, occurrences


def test_the_mutation_table_is_well_formed():
    ids = [m.id for m in MUTANTS]
    assert len(set(ids)) == len(ids)
    for m in MUTANTS:
        assert (SRC / (m.module + ".py")).is_file(), m.id
        assert occurrences(m) == 1, m.id
        assert m.replacement != m.snippet, m.id
        assert m.tests and all((ROOT / t.split("::")[0]).is_file()
                               for t in m.tests), m.id
        assert m.equivalent is None or m.equivalent.strip(), m.id


def test_the_mutation_table_covers_every_deciding_module():
    modules = {m.module for m in MUTANTS}
    assert len(MUTANTS) >= 40
    assert {"quotient", "axioms", "perms", "geometry", "diagram", "cosets",
            "lemmas"} <= modules, modules
