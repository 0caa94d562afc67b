import os
import subprocess
import sys
from pathlib import Path

import pytest

import blinkfit
from blinkfit import errors

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = sorted(p.stem for p in (SRC / "blinkfit").glob("*.py") if p.stem != "__init__")


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_on_its_own(module):
    # each module imports what it needs, whichever is imported first
    subprocess.run(
        [sys.executable, "-c", f"import blinkfit.{module}"],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        check=True,
    )


def test_package_names_nothing_but_its_modules():
    # a name is imported from the module that defines it
    names = [n for n in vars(blinkfit) if not n.startswith("__")]
    assert set(names) <= set(MODULES)


ERRORS = [
    v for v in vars(errors).values() if isinstance(v, type) and v.__module__ == errors.__name__
]


@pytest.mark.parametrize("cls", ERRORS, ids=lambda cls: cls.__name__)
def test_every_library_error_is_a_value_error(cls):
    # one `except ValueError` catches every refusal of the library
    assert issubclass(cls, ValueError)
