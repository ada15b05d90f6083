"""Search kernel selection: compiled extension when built, pure Python
fallback otherwise. Both run pykern's walk over pykern's staged program
(the compiled one runs its last stage in C on ``pykern._flat_program``),
so they expose the same API and give identical streams: over GF(2) and
GF(3) the Python walk evaluates its shallow levels as packed bit planes
before it resumes the scalar walk below each survivor; over larger
fields, where packed byte fields measured no faster, it walks scalar
throughout, as the compiled walk does over every field."""

from array import array

from . import pykern

try:
    from . import _ckern
except ImportError:  # extension not built; fall back
    _ckern = None


def _scan(kind_a, kind_b, n, p, fixed, cap):
    """pykern._scan, run by the C kernel on pykern's staged program. A
    template with no free slot, as ``passes`` scans, reads the program
    with no product pinned, cached per kind, dimension and prime: its one
    evaluation costs less in C than folding its pins in Python."""
    al = pykern.layout(kind_a, n)[2]
    pins = tuple(fixed[:al]) if min(fixed) < 0 else (-1,) * al
    return _ckern.scan(pykern._flat_program(kind_a, kind_b, n, p, pins), p,
                       array("q", fixed), cap)


_compiled = None if _ckern is None else pykern.Kernel("compiled", _scan)


def available() -> tuple:
    return ("python",) if _compiled is None else ("compiled", "python")


def get_kernel(name: str = "auto"):
    if name == "auto":
        return _compiled if _compiled is not None else pykern
    if name == "python":
        return pykern
    if name == "compiled":
        if _compiled is None:
            raise ValueError("compiled kernel not built; reinstall with a "
                             "C compiler or use kernel='python'")
        return _compiled
    raise ValueError(f"unknown kernel {name!r}")


def compiled_is_exact(prime: int) -> bool:
    """Whether the compiled kernel is exact over GF(``prime``): it holds
    residues in 64-bit unsigned words and reduces every product of two,
    so any p < 2**32 is exact at every dimension."""
    return prime < 2 ** 32


def kernel_for(name: str, prime: int):
    """The kernel ``name`` selects for a sweep over GF(``prime``): ``auto``
    falls back to the Python kernel where the compiled one is not exact,
    and ``compiled`` refuses such a field."""
    kern = get_kernel(name)
    if kern is _compiled and not compiled_is_exact(prime):
        if name == "compiled":
            raise ValueError(f"the compiled kernel is exact only for p < 2**32,"
                             f" not over GF({prime}); use kernel='python'")
        return pykern
    return kern
