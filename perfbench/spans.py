"""Layer spans and counters recorded from outside virbott.

Every traced layer is a public function or method of virbott.  A wrapper
is installed in each namespace where a caller looks the name up:
``cocycle``, ``liealg`` and ``cli`` bind ``forms`` and ``trigpoly``
functions with ``from ... import``, and ``diffeo`` binds the jet
composition of ``_jets`` the same way, so patching only the defining
module would leave those callers untimed.  Methods are patched on their
class, which every caller goes through.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict


def _nodes(args):
    """Points of a (d, N) batch, the second argument: jet(self, pts, ...)."""
    return args[1].shape[-1]


def _points(args):
    """Angles of TrigPoly.__call__(self, theta); a scalar counts one."""
    return getattr(args[1], "size", 1)


def _jet_nodes(args):
    return args[0].j.shape[-1]


def _grid_nodes(args):
    return args[1].npts


def layer_table(modules):
    """(span name, owner, attribute, size function) of every traced layer.

    ``modules`` maps the short names trigpoly, diffeo, forms, cocycle,
    liealg and cli to the imported virbott modules.
    """
    tp, df, fm = modules["trigpoly"], modules["diffeo"], modules["forms"]
    co, la, cli = modules["cocycle"], modules["liealg"], modules["cli"]
    return [
        ("trigpoly.eval", tp.TrigPoly, "__call__", _points),
        ("trigpoly.multiply", tp, "tp_multiply", None),
        ("trigpoly.derivative", tp, "tp_derivative", None),
        ("diffeo.chain_jet", df.DiscDiffeo, "jet", _nodes),
        ("diffeo.inverse_jet", df.InverseAngular, "jet", _nodes),
        ("diffeo.ball_jet", df.BallDiffeo, "jet", _nodes),
        # diffeo is where every caller of the jet chain rule looks it up
        ("jets.compose", df, "compose", None),
        ("forms.mc_components", fm, "mc_components", _jet_nodes),
        ("forms.wedge_trace_2form", fm, "wedge_trace_2form", None),
        ("forms.wedge_trace_cube", fm, "wedge_trace_cube", None),
        ("forms.integrate_disc", fm, "integrate_disc", _grid_nodes),
        ("forms.integrate_ball", fm, "integrate_ball", _grid_nodes),
        ("cocycle.wz_term", co, "wz_term", None),
        ("liealg.semidirect_bracket", la, "semidirect_bracket", None),
        ("liealg.beta_from_gamma_fd", la, "beta_from_gamma_fd", None),
        ("liealg.beta_integral", la, "beta_integral", None),
    ]


def patch_everywhere(modules, owner, attr, make_wrapper):
    """Replace ``owner.attr`` by ``make_wrapper(original)``.

    A class attribute is patched on the class.  A module function is
    patched in every given module whose namespace binds the same object.
    Returns the number of namespaces patched.
    """
    original = getattr(owner, attr)
    wrapped = make_wrapper(original)
    if isinstance(owner, type):
        setattr(owner, attr, wrapped)
        return 1
    patched = 0
    for module in modules.values():
        if vars(module).get(attr) is original:
            setattr(module, attr, wrapped)
            patched += 1
    return patched


class Tracer:
    """In-memory span recorder.

    A span is (id, parent id or -1, name, start, end) in
    ``time.perf_counter`` seconds.  Self time is a span's duration minus
    the time its direct child spans cover; totals include children.
    """

    def __init__(self):
        self.reset()

    def reset(self):
        self.spans = []
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = Counter()
        self.sizes = Counter()
        self._stack = []
        self._next_id = 0

    def begin(self, name):
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append([self._next_id, parent, name, 0.0,
                            time.perf_counter()])
        self._next_id += 1

    def end(self, size=0):
        stop = time.perf_counter()
        sid, parent, name, child_s, start = self._stack.pop()
        dur = stop - start
        if self._stack:
            self._stack[-1][3] += dur
        self.spans.append((sid, parent, name, start, stop))
        self.self_s[name] += dur - child_s
        self.total_s[name] += dur
        self.calls[name] += 1
        self.sizes[name] += size

    @property
    def open_spans(self):
        return [frame[2] for frame in self._stack]

    def wrap(self, name, fn, size=None):
        """``fn`` with every call recorded as a span called ``name``."""
        def traced(*args, **kwargs):
            self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(size(args) if size is not None else 0)
        return traced

    def install(self, modules):
        """Wrap every layer of ``layer_table``; returns the names of
        layers that no namespace bound (a timer that could never fire)."""
        unbound = []
        for name, owner, attr, size in layer_table(modules):
            n = patch_everywhere(modules, owner, attr,
                                 lambda fn, name=name, size=size:
                                 self.wrap(name, fn, size))
            if n == 0:
                unbound.append(name)
        return unbound

    def write(self, path):
        """Write the spans as JSON lines, one span per line."""
        with open(path, "w") as handle:
            for sid, parent, name, start, stop in self.spans:
                handle.write(json.dumps({"id": sid, "parent": parent,
                                         "name": name, "start": start,
                                         "end": stop}) + "\n")


class GammaCounter:
    """Counts gamma calls and the gamma integrals actually computed.

    ``gamma`` goes through ``cocycle.gamma_m``; a computed value (a cache
    miss) is the one ``cocycle.integrate_disc`` call made inside it.
    Counting from outside is what shows whether a repetition started from
    a cold cache.
    """

    def __init__(self, modules):
        self.calls = 0
        self.computed = 0
        self._depth = 0
        cocycle = modules["cocycle"]
        patch_everywhere(modules, cocycle, "gamma_m", self._wrap_gamma)
        cocycle.integrate_disc = self._wrap_integral(cocycle.integrate_disc)

    def _wrap_gamma(self, fn):
        def counted(*args, **kwargs):
            self.calls += 1
            self._depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._depth -= 1
        return counted

    def _wrap_integral(self, fn):
        def counted(*args, **kwargs):
            if self._depth:
                self.computed += 1
            return fn(*args, **kwargs)
        return counted

    def snapshot(self):
        return (self.calls, self.computed)
