"""Exact enumeration and generating functions for Dyck-like paths whose
descents may span several levels but never follow one another.

Importing the package loads none of its modules: each public name imports
its home module on first use (PEP 562), so `from airpockets import
evaluate` loads only catalog, series and errors.  `airpockets.cli`
registers every module without running it, and a command runs only the
modules it uses."""

from importlib import import_module

__version__ = "0.1.0"

# the suites `verify.run_suite` runs, kept here so that the command line
# can list them without running verify
SUITES = ("paper-series", "oracle", "bijections", "oeis", "all")

# each public name's home module
_HOMES = {
    **dict.fromkeys(("BlockDecomposition", "block_decompose", "phi",
                     "phi_inv", "psi", "psi_inv"), "bijections"),
    **dict.fromkeys(("NamedSeries", "evaluate", "gf_dap", "gf_gdap",
                     "gf_minorized", "gf_prefix_negative",
                     "gf_prefix_positive", "series_names"), "catalog"),
    **dict.fromkeys(("FamilySpec", "count_paths", "count_paths_upto",
                     "enum_compositions", "enum_paths", "iter_paths"),
                    "enumeration"),
    **dict.fromkeys(("SequenceRecord", "align_and_compare",
                     "fetch_sequence"), "oeis"),
    **dict.fromkeys(("EMPTY", "UD", "LatticePath", "classify",
                     "parse_path"), "paths"),
    "TruncatedSeries": "series",
    **dict.fromkeys(("CheckResult", "VerificationReport", "run_suite"),
                    "verify"),
}

__all__ = [*sorted(_HOMES), "__version__"]


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module("." + home, __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOMES})
