"""Performance results and contexts as returned from queries."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


@dataclass(frozen=True)
class Context:
    """One focus: a set of resource ids, with its focus type."""

    focus_id: int
    resource_ids: frozenset[int]
    focus_type: str = "primary"


@dataclass(frozen=True)
class PerformanceResult:
    """One measured or calculated value plus descriptive metadata.

    The paper's prototype stored scalars only (Section 3); the Section-6
    extension implemented here also supports vector results
    (``value_type == "vector"``), where ``value`` is the mean of the bins
    and ``series`` carries the per-bin data.
    """

    id: int
    execution: str
    metric: str
    tool: str
    value: Optional[float]
    units: str
    contexts: tuple[Context, ...] = ()
    start_time: Optional[str] = None
    end_time: Optional[str] = None
    value_type: str = "scalar"
    #: For vector results: (bin_index, bin_start, bin_end, value) rows.
    series: tuple[tuple[int, float, float, float], ...] = ()

    @property
    def is_vector(self) -> bool:
        return self.value_type == "vector"

    def series_values(self) -> list[float]:
        """Just the per-bin values of a vector result."""
        return [v for _i, _s, _e, v in self.series]

    @property
    def resource_ids(self) -> frozenset[int]:
        """Union of all context resource ids."""
        out: set[int] = set()
        for ctx in self.contexts:
            out |= ctx.resource_ids
        return frozenset(out)


_new_object = object.__new__


def _new_result(
    id: int,
    execution: str,
    metric: str,
    tool: str,
    value: Optional[float],
    units: str,
    contexts: tuple[Context, ...],
    start_time: Optional[str],
    end_time: Optional[str],
    value_type: str,
    series: tuple[tuple[int, float, float, float], ...],
) -> PerformanceResult:
    """A :class:`PerformanceResult` filled in one step, for bulk fetches.

    The frozen dataclass's ``__init__`` stores each field through
    ``object.__setattr__``; this writes the instance dict directly.  The
    instance equals, hashes and prints exactly as one built by
    ``PerformanceResult(...)`` does.  Fields are written in declaration
    order, the order ``__init__`` uses, so the instance dicts keep
    sharing one key table.
    """
    obj = _new_object(PerformanceResult)
    d = obj.__dict__
    d["id"] = id
    d["execution"] = execution
    d["metric"] = metric
    d["tool"] = tool
    d["value"] = value
    d["units"] = units
    d["contexts"] = contexts
    d["start_time"] = start_time
    d["end_time"] = end_time
    d["value_type"] = value_type
    d["series"] = series
    return obj


@dataclass
class ResultRow:
    """One row of the GUI-style result table (see repro.gui.mainwindow)."""

    result: PerformanceResult
    extra_columns: dict[str, str] = field(default_factory=dict)

    def cell(self, column: str) -> object:
        fixed = {
            "execution": self.result.execution,
            "metric": self.result.metric,
            "tool": self.result.tool,
            "value": self.result.value,
            "units": self.result.units,
        }
        if column in fixed:
            return fixed[column]
        return self.extra_columns.get(column)
