"""The name ``hasse_principle``, which perfbench's tracer wraps here.  The
verdict and every other local-global name live in ``picard``, beside the
Picard data they are read from; this module loads ``picard`` on first use."""

from . import _lazy_names

__getattr__ = _lazy_names(globals(), {"hasse_principle": "picard"})
