"""The package's immutable records, and what importing the package loads."""

import os
import pkgutil
import subprocess
import sys

import pytest

import airpockets
from airpockets.bijections import BlockDecomposition
from airpockets.catalog import NamedSeries, _Entry
from airpockets.enumeration import FamilySpec
from airpockets.oeis import Alignment, SequenceRecord
from airpockets.paths import UD, PathClassification
from airpockets.series import TruncatedSeries
from airpockets.verify import CheckResult, VerificationReport

ONE = TruncatedSeries([1], 3)

# (record, the fields passed by keyword, the defaults the rest must take),
# each dict in field order
RECORDS = [
    (BlockDecomposition, {"blocks": (UD,), "lengths": (2,)}, {}),
    (NamedSeries, {"name": "dap", "params": (), "series": ONE}, {}),
    (_Entry, {"params": ("k",), "fn": abs, "summary": "s"}, {}),
    (FamilySpec, {"kind": "gdap"},
     {"min_y": None, "max_y": None, "end_ordinate": None, "end_step": None,
      "start_step": None}),
    (SequenceRecord, {"id": "A000035", "terms": (0, 1), "source": "fixture"},
     {}),
    (Alignment, {"shift": 0, "start": 1, "matches": 9, "skipped": 0}, {}),
    (PathClassification,
     {"length": 2, "final_ordinate": 0, "max_height": 1, "min_height": 0,
      "is_dap": True, "is_gdap": True, "is_prime": False,
      "starts_with": "up", "ends_with": "down"}, {}),
    (CheckResult, {"subject": "dap", "check_kind": "dual_path",
                   "range": "order 10", "status": "pass"},
     {"first_mismatch": None}),
    (VerificationReport, {"suite": "all", "checks": ()}, {}),
]
IDS = [record.__name__ for record, _, _ in RECORDS]


@pytest.mark.parametrize("record, given, defaults", RECORDS, ids=IDS)
def test_record_is_immutable(record, given, defaults):
    value = record(**given)
    field = next(iter(given))
    with pytest.raises(AttributeError):
        setattr(value, field, given[field])
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize("record, given, defaults", RECORDS, ids=IDS)
def test_record_equality_and_hash_follow_the_fields(record, given, defaults):
    by_keyword = record(**given)
    by_position = record(*given.values())
    assert by_keyword == by_position
    assert hash(by_keyword) == hash(by_position)


@pytest.mark.parametrize("record, given, defaults", RECORDS, ids=IDS)
def test_record_repr_names_every_field(record, given, defaults):
    fields = {**given, **defaults}
    assert repr(record(**given)) == (
        record.__name__ + "("
        + ", ".join(f"{key}={value!r}" for key, value in fields.items())
        + ")")


@pytest.mark.parametrize("record, given, defaults", RECORDS, ids=IDS)
def test_record_keyword_defaults_apply(record, given, defaults):
    value = record(**given)
    for key, default in defaults.items():
        assert getattr(value, key) == default


@pytest.mark.parametrize("record, change", [
    (CheckResult, {"status": "fail"}),
    (SequenceRecord, {"terms": ()}),
], ids=["CheckResult", "SequenceRecord"])
def test_replace_runs_the_record_checks(record, change):
    given = next(given for cls, given, _ in RECORDS if cls is record)
    with pytest.raises(ValueError):
        record(**given)._replace(**change)


def _loaded_after(statement: str, *flags: str) -> set[str]:
    # pytest itself imports the whole package, dataclasses and inspect, so
    # ask a fresh process
    src = os.path.dirname(os.path.dirname(airpockets.__file__))
    out = subprocess.run(
        [sys.executable, *flags, "-c",
         f"import sys; {statement}; print(' '.join(sorted(sys.modules)))"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
        check=True).stdout
    return set(out.split())


MODULES = {"airpockets." + info.name
           for info in pkgutil.iter_modules(airpockets.__path__)
           if info.name != "__main__"}

# `import airpockets.cli` registers the package's modules without running
# them; reading each one's __dict__ runs its body, so what the bodies
# import is checked too, and the check that all ran fails the process
# otherwise
IMPORT_CLI_AND_RUN_EVERY_MODULE = (
    "import types, airpockets.cli; "
    "package = [module for name, module in list(sys.modules.items()) "
    "if name.startswith('airpockets.')]; "
    "[vars(module) for module in package]; "
    "assert all(type(module) is types.ModuleType for module in package)")


def test_cli_import_registers_every_module_and_no_dataclasses():
    loaded = _loaded_after(IMPORT_CLI_AND_RUN_EVERY_MODULE)
    # argparse costs every launch its import, and its first message the
    # import of locale; getopt imports gettext.  The CLI reads argv with
    # one loop of its own
    assert not {"dataclasses", "inspect", "csv", "json", "fractions",
                "decimal", "argparse", "locale", "getopt",
                "gettext"} & loaded
    # the benchmark's tracer finds these in sys.modules after this import
    traced = {"airpockets." + name for name in (
        "bijections", "catalog", "enumeration", "oeis", "paths", "series",
        "verify")}
    assert traced <= MODULES <= loaded


def _ran_after(argv: list[str]) -> set[str]:
    # the package modules whose bodies have run after one command, in a
    # fresh process; a module registered but not yet run is still
    # LazyLoader's ModuleType subclass, and testing its type reads no
    # attribute of it, so it does not run it
    src = os.path.dirname(os.path.dirname(airpockets.__file__))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, types\n"
         "from airpockets import cli\n"
         f"cli.main({argv!r})\n"
         "print(' '.join(name for name, module in sys.modules.items()\n"
         "               if name.startswith('airpockets.')\n"
         "               and type(module) is types.ModuleType))"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
        check=True).stdout
    return set(out.splitlines()[-1].split())


@pytest.mark.parametrize("argv, used", [
    (["series", "G", "--order", "5"], {"catalog", "series"}),
    (["enumerate", "--family", "H", "--length", "8", "--count"],
     {"enumeration", "paths"}),
    (["map", "--bijection", "psi", "--apply", "UUD2"],
     {"bijections", "paths"}),
    (["verify", "--offline", "--suite", "all"],
     {name.removeprefix("airpockets.") for name in MODULES}),
], ids=["series", "enumerate", "map", "verify"])
def test_a_command_runs_only_the_modules_it_uses(argv, used):
    assert _ran_after(argv) == {
        "airpockets." + name for name in ("cli", "errors", *used)}


def test_cli_import_loads_no_typing():
    # under -S no site hook has loaded typing already; the records are
    # collections.namedtuple classes
    assert "typing" not in _loaded_after(IMPORT_CLI_AND_RUN_EVERY_MODULE,
                                         "-S")


def _submodules(loaded: set[str]) -> set[str]:
    return {name for name in loaded if name.startswith("airpockets.")}


def test_package_import_loads_no_module():
    assert _submodules(_loaded_after("import airpockets")) == set()


def test_evaluate_import_loads_only_what_it_runs():
    assert _submodules(_loaded_after("from airpockets import evaluate")) == {
        "airpockets.catalog", "airpockets.series", "airpockets.errors"}


def test_evaluate_import_loads_neither_typing_nor_re():
    # under -S no site hook has loaded them already
    loaded = _loaded_after("from airpockets import evaluate", "-S")
    assert not {"typing", "re"} & loaded


def test_every_public_name_is_its_home_modules_object():
    star: dict = {}
    exec("from airpockets import *", star)
    del star["__builtins__"]
    assert set(star) == set(airpockets.__all__)
    for name in airpockets.__all__:
        if name == "__version__":
            continue
        value = getattr(airpockets, name)
        # EMPTY and UD are paths: their class names the module
        home = sys.modules[value.__module__]
        assert home.__name__ != "airpockets"
        assert getattr(home, name) is value is star[name]


def test_package_dir_lists_every_public_name():
    assert set(airpockets.__all__) <= set(dir(airpockets))


def test_unknown_package_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        airpockets.no_such_name
    assert not hasattr(airpockets, "_no_such_name")
