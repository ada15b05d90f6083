"""Search kernel selection: compiled extension when built, pure Python
fallback otherwise. Both expose the same API and identical streams."""

from . import pykern

try:
    from . import _ckern
except ImportError:  # extension not built; fall back
    _ckern = None


def available() -> tuple:
    names = ["python"]
    if _ckern is not None:
        names.insert(0, "compiled")
    return tuple(names)


def get_kernel(name: str = "auto"):
    if name == "auto":
        return _ckern if _ckern is not None else pykern
    if name == "python":
        return pykern
    if name == "compiled":
        if _ckern is None:
            raise RuntimeError("compiled kernel not built; reinstall with a "
                               "C compiler or use kernel='python'")
        return _ckern
    raise ValueError(f"unknown kernel {name!r}")


def compiled_is_exact(dim: int, prime: int) -> bool:
    """Whether the compiled kernel's fixed-width arithmetic is exact at
    ``dim`` over GF(``prime``). It holds residues in a C ``int`` and sums
    up to three contractions of ``dim**2`` products of three residues in
    a 64-bit C ``long`` before reducing mod p."""
    return prime < 2 ** 31 and 3 * dim * dim * (prime - 1) ** 3 < 2 ** 63


def kernel_for(name: str, dim: int, prime: int):
    """The kernel ``name`` selects for a sweep at ``dim`` over
    GF(``prime``): ``auto`` falls back to the Python kernel where the
    compiled one could overflow, and ``compiled`` refuses such a space."""
    kern = get_kernel(name)
    if kern is _ckern and not compiled_is_exact(dim, prime):
        if name == "compiled":
            raise ValueError(f"the compiled kernel can overflow at dimension "
                             f"{dim} over GF({prime}); use kernel='python'")
        return pykern
    return kern
