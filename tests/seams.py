"""Wrappers that count or record the calls a test makes into spglr's
private seams: any function by name, the truncated prox's answers, and
the full eighs of the Gram route."""

from spglr import linalg as linalg_module
from spglr import penalty as penalty_module


def count_calls(monkeypatch, owner, name):
    """Route owner.name, a module global or one object's method, through
    a wrapper that counts its calls."""
    calls = []
    original = getattr(owner, name)

    def counting(*args):
        calls.append(None)
        return original(*args)

    monkeypatch.setattr(owner, name, counting)
    return calls


def count_full_eighs(monkeypatch, p):
    """Count the full eighs of the p x p Gram matrix: the _eigh calls on a
    p x p matrix. A warm Gram call's Rayleigh-Ritz solves are at most p / 2
    wide, so the shape tells the two apart."""
    calls = []
    eigh = linalg_module._eigh

    def counting(A):
        if A.shape == (p, p):
            calls.append(None)
        return eigh(A)

    monkeypatch.setattr(linalg_module, "_eigh", counting)
    return calls


def record_routes(monkeypatch):
    """Whether each prox got its factors from the truncated route, in call order."""
    routed = []
    leading_svd = penalty_module._leading_svd

    def recording(*args):
        factors = leading_svd(*args)
        routed.append(factors is not None)
        return factors

    monkeypatch.setattr(penalty_module, "_leading_svd", recording)
    return routed
