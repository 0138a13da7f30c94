"""Timing spans around mmwprop's public functions, recorded from outside.

``Tracer.install`` replaces selected module attributes with timing wrappers
and ``Tracer.uninstall`` puts the originals back. A call made while another
wrapped call is running becomes its child span (``ds_normalization`` inside
``predict_pattern``, ``backscatter_margin`` inside ``classify_smooth``).
Spans stay in memory until the run ends.

Only calls across a module boundary, plus the named nested calls above, are
wrapped: wrapping ``fresnel_gamma_perp`` inside the reflection module, for
example, would add a span to every step of the MMSE search.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
from dataclasses import dataclass, field
from time import perf_counter

# (module, attributes) whose calls are traced. The layer of a span is the
# module that defines the wrapped function.
TRACED = (
    ("mmwprop.cli", ("load_path_loss_csv", "load_reflection_csv", "validate_dataset",
                     "paper_dataset", "fit_ci", "reduce_directional", "fspl_db",
                     "ci_path_loss_db", "estimate_permittivity_mmse", "fit_linear_reflection",
                     "fresnel_gamma_perp", "reflection_loss_db", "predict_pattern",
                     "backscatter_margin", "classify_smooth", "sweep_geometries",
                     "partition_loss", "xpd_from_path_losses", "depolarization_margin",
                     "power_budget")),
    ("mmwprop.partition", ("fspl_db",)),
    ("mmwprop.reflection", ("estimate_permittivity_mmse", "fit_linear_reflection")),
    ("mmwprop.scattering", ("predict_pattern", "ds_normalization", "backscatter_margin",
                            "classify_smooth", "fresnel_gamma_perp")),
)
# Public accessors of the embedded tables (methods of PaperDataset).
DATASET_ACCESSORS = ("sounder", "xpd_db", "arc_antenna", "reflection_samples",
                     "reflection_loss_db", "partition_records", "partition_record",
                     "partition_mean_db", "ci_fit", "material", "permittivity")


@dataclass
class Span:
    op: int                  # index of the op execution the span belongs to
    layer: str
    name: str
    parent: "Span | None"
    size: int | None         # len() of the first argument, when it has one
    start: float = 0.0
    end: float = 0.0
    rows_out: int | None = None   # len() of a returned list
    error: str | None = None
    children: list = field(default_factory=list)

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3

    @property
    def self_ms(self) -> float:
        return self.ms - sum(child.ms for child in self.children)


def _layer_of(fn) -> str:
    return fn.__module__.rpartition(".")[2]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, fn, layer: str | None = None, name: str | None = None):
        layer = layer or _layer_of(fn)
        name = name or fn.__name__

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            size = len(args[0]) if args and hasattr(args[0], "__len__") else None
            span = Span(self.op, layer, name, parent, size)
            self.spans.append(span)
            if parent is not None:
                parent.children.append(span)
            self._stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = perf_counter()
                self._stack.pop()
            if isinstance(result, list):
                span.rows_out = len(result)
            return result
        return traced

    def _patch(self, owner, attr, replacement):
        self._saved.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                            else getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        for module_name, attrs in TRACED:
            module = importlib.import_module(module_name)
            for attr in attrs:
                self._patch(module, attr, self.wrap(getattr(module, attr)))
        cli = importlib.import_module("mmwprop.cli")
        self._patch(cli, "build_parser", self._wrap_build_parser(cli.build_parser))
        dataset_cls = importlib.import_module("mmwprop.datasets").PaperDataset
        for attr in DATASET_ACCESSORS:
            self._patch(dataset_cls, attr, self.wrap(getattr(dataset_cls, attr), "datasets"))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def active(self, op: int):
        """Trace calls made inside the block as spans of op execution ``op``."""
        self.op = op
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    def _wrap_build_parser(self, build_parser):
        traced_build = self.wrap(build_parser, "cli")

        @functools.wraps(build_parser)
        def build():
            parser = traced_build()
            parser.parse_args = self.wrap(parser.parse_args, "cli", "parse_args")
            return parser
        return build

    def by_name(self, *names: str) -> list[Span]:
        return [s for s in self.spans if s.name in names]
