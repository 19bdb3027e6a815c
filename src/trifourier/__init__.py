"""Exact triangularization of Fourier transforms over GF(2) symplectic spaces,
plus the non-abelian Fourier matrices of the symmetric groups on up to five
points.

The names in `__all__` are imported from their modules on first access
(PEP 562), so `import trifourier` loads no module it does not use.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> defining module
_EXPORTS = {
    "Cyc": "cyclotomic",
    "CobMatrix": "fourier",
    "Family": "family",
    "MPair": "nonabelian",
    "Report": "report",
    "Subspace": "gf2",
    "SymplecticSpace": "gf2",
    "build_family": "family",
    "change_of_basis": "fourier",
    "delta": "family",
    "is_isotropic": "gf2",
    "make_space": "gf2",
    "nonabelian_ft": "nonabelian",
    "phi": "fourier",
    "piece_partition": "newbasis",
    "s3_new_basis": "newbasis",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
