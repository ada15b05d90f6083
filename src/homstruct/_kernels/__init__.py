"""Search kernel selection: compiled extension when built, pure Python
fallback otherwise. Both expose the same API and identical streams."""

from . import pykern

try:
    from . import _ckern
except ImportError:  # extension not built; fall back
    _ckern = None


def _c_layout(kind, n):
    """All the C kernel knows of a kind: its position in ``pykern.KINDS``
    and the offsets of its products and of its twist."""
    _, offs, al = pykern.layout(kind, n)
    return list(pykern.KINDS).index(kind), offs[0], offs[-1], al


class _Compiled:
    """The C kernel in ``_ckern`` behind ``pykern``'s API."""

    NAME = "compiled"

    @staticmethod
    def sweep(kind, n, p, fixed, cap):
        # the C side holds the cap in a 64-bit int
        count, _, samples = _ckern.scan(_c_layout(kind, n), -1, n, p, fixed,
                                        min(cap, 2 ** 62))
        return count, samples

    @staticmethod
    def audit(kind_a, kind_b, n, p, fixed):
        if pykern.KINDS[kind_a] != pykern.KINDS[kind_b]:
            raise ValueError("audit kinds must share one layout")
        count, violations, examples = _ckern.scan(
            _c_layout(kind_a, n), _c_layout(kind_b, n)[0], n, p, fixed, 1)
        return count, violations, (examples[0] if examples else None)

    @staticmethod
    def passes(kind, v, n, p):
        # a candidate with no free slot: it passes when it is counted
        if any(x < 0 for x in v):
            raise ValueError("candidate entries must be residues mod p")
        return _ckern.scan(_c_layout(kind, n), -1, n, p, v, 0)[0] == 1


_compiled = _Compiled if _ckern is not None else None


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
