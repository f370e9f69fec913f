"""``tools/mutants.py``'s catalogue applies to the package as it stands.

Each old text occurs exactly once in its module and differs from its new
text, so every mutant the tool runs is the edit its reason describes.  No
mutant is run here, and no pytest process is started.
"""

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.CATALOGUE, ids=lambda mutant: mutant.module)
def test_each_mutant_edits_its_module_once(mutant):
    source = pathlib.Path(mutants.module_path(str(ROOT), mutant)).read_text(encoding="utf-8")
    assert mutants.mutated(str(ROOT), mutant) == source.replace(mutant.old, mutant.new) != source
    assert mutant.reason


@pytest.mark.parametrize("old, new", [
    ("no such text", "x"),  # missing
    ("def ", "def x"),  # repeated
    ('"reflection_classes": k - 1,', '"reflection_classes": k - 1,'),  # unchanged
])
def test_a_missing_repeated_or_unchanged_old_text_is_refused(old, new):
    with pytest.raises(ValueError, match="occurs"):
        mutants.mutated(str(ROOT), mutants.Mutant("classify", old, new, "a bad entry"))
