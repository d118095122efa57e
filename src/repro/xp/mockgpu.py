"""The ``mockgpu`` backend: NumPy semantics, device discipline.

Arrays produced by this backend are "device-resident" — a
:class:`numpy.ndarray` subclass tagged with the owning backend, in
memory of its own: ``from_host`` copies, as ``to_host`` does, so a host
read that skipped the residency fence sees the stale host value instead
of quietly aliasing the device one — and every host<->device crossing
is accounted in the transfer ledger:

* ``from_host``/``asarray`` of host data → H2D (bytes + count);
* ``to_host``/``item``/``tolist`` → D2H;
* scalar reductions (``arr.max()`` with no axis) → an 8-byte D2H, the
  device-reduce-plus-readback every real GPU port performs;
* each kernel primitive (``argsort``, ``cumsum``, scatter, ...) →
  one entry in the simulated dispatch queue, logged in issue order so
  tests can assert async-dispatch ordering across phase boundaries.

Inside a :meth:`kernel_phase` region the backend turns *strict*:

* an **implicit** host round-trip — ``int()``, ``bool()``, ``tolist``,
  iteration on a device array — raises :class:`BackendContractError`
  (in non-strict mode it is merely counted in ``implicit_syncs``);
* any primitive *or operator* returning a **floating** dtype raises:
  the hot path is int64-disciplined, and a float64 result means some
  call site forgot to pin ``dtype`` or divided with ``/`` (this is how
  the dtype-discipline audit is enforced mechanically rather than by
  review).  Primitives are checked as they dispatch, operators and
  ufuncs (``a / 1``, ``np.add(a, 0.5)``) in ``__array_wrap__``.

Limitations, by design: the mock intercepts *Python-level* host access
(``__int__``/``__bool__``/``__iter__``/``tolist``/``item``) and the
result of every ufunc on a device array — which is where real
round-trips and upcasts hide (host loops, data-dependent control flow,
true division).  A raw ``numpy`` function that is not a ufunc
(``np.concatenate``, ``np.sort``) reads the buffer at C level and
returns a plain host array the mock never sees; under NumPy semantics
that changes no value, so the cross-backend byte-identity suite covers
what the mock cannot.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from repro.errors import BackendContractError
from repro.xp.base import CONTRACT, ArrayBackend


def _make_device_class(backend: "MockGpuBackend") -> type:
    """Build this backend instance's private device-array class.

    The class is per-instance so arrays report to exactly one ledger;
    two concurrent mockgpu engines never cross their counters.
    """

    def _guard(arr, what: str) -> None:
        backend._implicit_access(what, arr)

    def tolist(self):
        _guard(self, "tolist")
        return np.asarray(self).tolist()

    def item(self, *args):
        _guard(self, "item")
        return np.ndarray.item(self, *args)

    def __int__(self):
        _guard(self, "int")
        return int(np.ndarray.item(self))

    def __float__(self):
        _guard(self, "float")
        return float(np.ndarray.item(self))

    def __bool__(self):
        _guard(self, "bool")
        return np.ndarray.__bool__(self)

    def __index__(self):
        _guard(self, "index")
        return np.ndarray.__index__(self)

    def __iter__(self):
        _guard(self, "iter")
        return np.ndarray.__iter__(self)

    def __getitem__(self, idx):
        res = np.ndarray.__getitem__(self, idx)
        if isinstance(res, np.generic):
            # element read off the device (arr[i] yields a host scalar)
            _guard(self, "scalar-index")
        return res

    def __array_wrap__(self, obj, *args):
        # operator results (``a / 1``, ``a * 0.5``) never pass through
        # ``_kernel``: the dtype discipline is checked here instead
        if backend.strict and backend._phase is not None and obj.dtype.kind == "f":
            raise BackendContractError(
                f"mockgpu: operator produced {obj.dtype} inside kernel phase "
                f"{backend._phase!r}; the hot path is int64-disciplined"
            )
        return np.ndarray.__array_wrap__(self, obj, *args)

    def _reduction(name: str):
        base = getattr(np.ndarray, name)

        def method(self, axis=None, *args, **kwargs):
            res = base(self, axis, *args, **kwargs)
            if axis is None and np.ndim(res) == 0:
                # device reduce + one-word readback, not a violation
                return backend._scalar_readback(name, res)
            return res

        method.__name__ = name
        return method

    members = {
        "__array_priority__": 15.0,
        "tolist": tolist,
        "item": item,
        "__int__": __int__,
        "__float__": __float__,
        "__bool__": __bool__,
        "__index__": __index__,
        "__iter__": __iter__,
        "__getitem__": __getitem__,
        "__array_wrap__": __array_wrap__,
    }
    # the sanctioned scalar-readback set comes from the shared contract
    for name in CONTRACT.scalar_readbacks:
        members[name] = _reduction(name)
    return type("MockDeviceArray", (np.ndarray,), members)


class MockGpuBackend(ArrayBackend):
    """NumPy-backed device simulator enforcing the transfer contract."""

    name = "mockgpu"
    is_device = True

    def __init__(self, strict: bool = True) -> None:
        super().__init__(np)
        self.strict = bool(strict)
        self._phase: str | None = None
        #: (primitive, dtype) pairs for every float-typed kernel result
        self.upcasts: list[tuple[str, str]] = []
        self.DeviceArray = _make_device_class(self)

    # -- bookkeeping helpers ------------------------------------------------
    @property
    def phase(self) -> str | None:
        """The active kernel-phase name, or ``None`` between phases."""
        return self._phase

    def is_device_array(self, arr) -> bool:
        return isinstance(arr, self.DeviceArray)

    def _wrap(self, res):
        if isinstance(res, np.ndarray) and not isinstance(res, self.DeviceArray):
            return res.view(self.DeviceArray)
        return res

    def _check_dtype(self, op: str, res):
        if isinstance(res, np.ndarray) and res.dtype.kind == "f":
            self.upcasts.append((op, str(res.dtype)))
            if self.strict:
                raise BackendContractError(
                    f"mockgpu: primitive {op!r} produced dtype {res.dtype}; "
                    "the hot path is int64-disciplined — pin dtype at the "
                    "call site"
                )
        return res

    def _kernel(self, op: str, res):
        """Account one device-kernel dispatch and wrap its result."""
        t = self.transfers
        t.dispatches += 1
        t.events.append(("dispatch", f"{self._phase or 'eager'}:{op}"))
        if isinstance(res, tuple):
            return tuple(self._wrap(self._check_dtype(op, r)) for r in res)
        return self._wrap(self._check_dtype(op, res))

    def _implicit_access(self, what: str, arr) -> None:
        t = self.transfers
        if self._phase is not None:
            t.implicit_syncs += 1
            t.events.append(("implicit", f"{self._phase}:{what}"))
            if self.strict:
                raise BackendContractError(
                    f"mockgpu: implicit host round-trip ({what}) on a device "
                    f"array inside kernel phase {self._phase!r}; route it "
                    "through xp.to_host/xp.item/xp.tolist at a phase boundary"
                )
        else:
            # eager-sync read between phases: legal, but it is traffic
            t.d2h_count += 1
            t.d2h_bytes += int(arr.nbytes)
            t.events.append(("d2h", f"eager:{what}"))

    def _scalar_readback(self, name: str, res):
        t = self.transfers
        t.d2h_count += 1
        t.d2h_bytes += int(getattr(res, "itemsize", 8))
        t.events.append(("d2h", f"{self._phase or 'eager'}:reduce_{name}"))
        if isinstance(res, np.ndarray):  # 0-d device result: unwrap quietly
            return np.ndarray.item(res)
        return res.item() if isinstance(res, np.generic) else res

    # -- kernel-phase contract ---------------------------------------------
    @contextmanager
    def kernel_phase(self, name: str):
        if self._phase is not None:  # nested regions fold into the outer
            yield self
            return
        self._phase = name
        self.transfers.events.append(("phase", f"begin:{name}"))
        try:
            yield self
        finally:
            self._phase = None
            self.transfers.events.append(("phase", f"end:{name}"))
            self.transfers.events.append(("sync", name))

    def synchronize(self) -> None:
        self.transfers.events.append(("sync", self._phase or "host"))

    # -- host<->device crossings --------------------------------------------
    def from_host(self, arr):
        if isinstance(arr, self.DeviceArray):
            return arr
        a = np.array(arr)  # the device's own copy
        self._check_dtype("from_host", a)
        t = self.transfers
        t.h2d_count += 1
        t.h2d_bytes += int(a.nbytes)
        t.events.append(("h2d", f"{self._phase or 'eager'}:{a.nbytes}"))
        return a.view(self.DeviceArray)

    def to_host(self, arr):
        if not isinstance(arr, self.DeviceArray):
            return np.asarray(arr)
        t = self.transfers
        t.d2h_count += 1
        t.d2h_bytes += int(arr.nbytes)
        t.events.append(("d2h", f"{self._phase or 'eager'}:{arr.nbytes}"))
        return np.array(arr, subok=False)

    def item(self, x):
        if isinstance(x, self.DeviceArray):
            t = self.transfers
            t.d2h_count += 1
            t.d2h_bytes += int(x.itemsize)
            t.events.append(("d2h", f"{self._phase or 'eager'}:item"))
            return np.ndarray.item(x)
        return x.item() if isinstance(x, np.generic | np.ndarray) else x

    def tolist(self, arr) -> list:
        if isinstance(arr, self.DeviceArray):
            t = self.transfers
            t.d2h_count += 1
            t.d2h_bytes += int(arr.nbytes)
            t.events.append(("d2h", f"{self._phase or 'eager'}:tolist"))
            return np.asarray(arr).tolist()
        return arr.tolist()

    def device_info(self) -> dict[str, object]:
        return {
            "backend": self.name,
            "library": "numpy",
            "version": np.__version__,
            "device": "mockgpu (contract-checking simulator)",
        }

    # -- creation (device allocations; dtype must be pinned) -----------------
    def asarray(self, obj, dtype=None):
        if isinstance(obj, self.DeviceArray):
            a = obj if dtype is None or obj.dtype == dtype else obj.astype(dtype)
            return self._kernel("asarray", np.asarray(a))
        return self.from_host(np.asarray(obj, dtype=dtype))

    def empty(self, shape, dtype=None):
        return self._kernel("empty", np.empty(shape, dtype=dtype))

    def zeros(self, shape, dtype=None):
        return self._kernel("zeros", np.zeros(shape, dtype=dtype))

    def ones(self, shape, dtype=None):
        return self._kernel("ones", np.ones(shape, dtype=dtype))

    def full(self, shape, fill_value, dtype=None):
        return self._kernel("full", np.full(shape, fill_value, dtype=dtype))

    def arange(self, *args, dtype=None):
        return self._kernel("arange", np.arange(*args, dtype=dtype))

    # -- combination ---------------------------------------------------------
    def concatenate(self, arrays, axis=0):
        return self._kernel("concatenate", np.concatenate(list(arrays), axis=axis))

    def stack(self, arrays, axis=0):
        return self._kernel("stack", np.stack(list(arrays), axis=axis))

    def repeat(self, a, repeats, axis=None):
        return self._kernel("repeat", np.repeat(a, repeats, axis=axis))

    def broadcast_to(self, a, shape):
        return self._kernel("broadcast_to", np.broadcast_to(a, shape))

    def where(self, cond, x=None, y=None):
        if x is None and y is None:
            return self._kernel("where", np.where(cond))
        return self._kernel("where", np.where(cond, x, y))

    def astype(self, arr, dtype, copy: bool = False):
        return self._kernel("astype", np.asarray(arr).astype(dtype, copy=copy))

    # -- sorting / searching -------------------------------------------------
    def argsort(self, a, stable: bool = True, axis: int = -1):
        return self._kernel(
            "argsort", np.argsort(a, axis=axis, kind="stable" if stable else None)
        )

    def lexsort(self, keys):
        return self._kernel("lexsort", np.lexsort(tuple(keys)))

    def sort(self, a, axis: int = -1):
        return self._kernel("sort", np.sort(a, axis=axis))

    def unique(self, a, **kwargs):
        return self._kernel("unique", np.unique(np.asarray(a), **kwargs))

    def searchsorted(self, a, v, side: str = "left"):
        return self._kernel("searchsorted", np.searchsorted(a, v, side=side))

    def flatnonzero(self, a):
        return self._kernel("flatnonzero", np.flatnonzero(a))

    # -- scans / reductions --------------------------------------------------
    def cumsum(self, a, axis=None):
        return self._kernel("cumsum", np.cumsum(a, axis=axis))

    def bincount(self, a, minlength: int = 0):
        return self._kernel("bincount", np.bincount(np.asarray(a), minlength=minlength))

    # -- scatter -------------------------------------------------------------
    def _scatter(self, op: str, ufunc_at, target, index, values) -> None:
        if (
            self.strict
            and self._phase is not None
            and not isinstance(target, self.DeviceArray)
        ):
            raise BackendContractError(
                f"mockgpu: {op} into a host array inside kernel phase "
                f"{self._phase!r}; move the target to the device with "
                "xp.from_host first"
            )
        t = self.transfers
        t.dispatches += 1
        t.events.append(("dispatch", f"{self._phase or 'eager'}:{op}"))
        ufunc_at(np.asarray(target), np.asarray(index), np.asarray(values))

    def scatter(self, target, index, values) -> None:
        def assign(t, i, v):
            t[i] = v

        self._scatter("scatter", assign, target, index, values)

    def scatter_add(self, target, index, values) -> None:
        self._scatter("scatter_add", np.add.at, target, index, values)


__all__ = ["MockGpuBackend"]
