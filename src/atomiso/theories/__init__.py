"""Atom structure backends and their shared first-order toolkit."""

from ..errors import VocabularyError
from .base import Backend, Valuation
from .cyclic import CyclicBackend
from .dlo import DloBackend
from .equality import EqualityBackend

_BACKENDS = {
    "equality": EqualityBackend,
    "dlo": DloBackend,
    "cyclic": CyclicBackend,
}


def backend_names() -> list[str]:
    return sorted(_BACKENDS)


def get_backend(name: str) -> Backend:
    cls = _BACKENDS.get(name)
    if cls is None:
        raise VocabularyError(
            f"unknown backend {name!r}; available: {', '.join(backend_names())}"
        )
    return cls()


__all__ = [
    "Backend",
    "CyclicBackend",
    "DloBackend",
    "EqualityBackend",
    "Valuation",
    "backend_names",
    "get_backend",
]
