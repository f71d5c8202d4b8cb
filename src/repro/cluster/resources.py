"""Resource vectors for containers and servers.

The paper models each container ``c_i`` with a physical resource requirement
``r_i`` (memory, CPU cycles) and each server ``s_j`` with an available
resource ``q_j``; feasibility is ``sum(r_i for c_i hosted by s_j) <= q_j``
(Section 3.1).  :class:`Resources` is a small immutable vector with the
component-wise arithmetic and comparison that check encodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

__all__ = ["Resources", "clamp_residue"]

#: Size of the float-rounding residue that charge/refund cycles leave
#: behind (e.g. ``0.7 + 0.5 - 0.7 - 0.5 != 0.0``).
RESIDUE = 1e-9


def clamp_residue(value: float) -> float:
    """Snap a residue-sized negative difference to 0.0; keep the rest."""
    return 0.0 if -RESIDUE < value < 0.0 else value


@dataclass(frozen=True, order=False)
class Resources:
    """An immutable (memory, vcores) resource vector.

    The two components mirror YARN's default resource model.  All arithmetic
    is component-wise; ``a.fits_in(b)`` is the partial order used by every
    capacity check in the library.
    """

    memory: float = 0.0
    vcores: float = 0.0

    def __post_init__(self) -> None:
        if self.memory < 0 or self.vcores < 0:
            raise ValueError(f"resources must be non-negative, got {self}")

    # ------------------------------------------------------------ arithmetic
    def __add__(self, other: "Resources") -> "Resources":
        return Resources(self.memory + other.memory, self.vcores + other.vcores)

    def __sub__(self, other: "Resources") -> "Resources":
        # Clamp float-rounding residue so repeated charge/refund cycles
        # never trip the non-negativity validator; genuinely negative
        # results still raise.
        return Resources(
            clamp_residue(self.memory - other.memory),
            clamp_residue(self.vcores - other.vcores),
        )

    def __mul__(self, scalar: float) -> "Resources":
        return Resources(self.memory * scalar, self.vcores * scalar)

    __rmul__ = __mul__

    # ------------------------------------------------------------ comparison
    def fits_in(self, capacity: "Resources") -> bool:
        """Component-wise ``self <= capacity`` (the paper's capacity check)."""
        return self.memory <= capacity.memory and self.vcores <= capacity.vcores

    def matches(self, other: "Resources") -> bool:
        """Equal up to float-rounding residue: the test a usage cache,
        built by charges and refunds, passes against its re-derived sum."""
        return (
            abs(self.memory - other.memory) <= RESIDUE
            and abs(self.vcores - other.vcores) <= RESIDUE
        )

    def dominates(self, other: "Resources") -> bool:
        """Component-wise ``self >= other``."""
        return self.memory >= other.memory and self.vcores >= other.vcores

    @property
    def is_zero(self) -> bool:
        return self.memory == 0 and self.vcores == 0

    # ------------------------------------------------------------- utilities
    def as_tuple(self) -> tuple[float, float]:
        return (self.memory, self.vcores)

    @classmethod
    def from_tuple(cls, values: tuple[float, ...]) -> "Resources":
        """Build from a generic tuple; missing components default to 0."""
        padded = tuple(values) + (0.0,) * (2 - len(values))
        return cls(memory=padded[0], vcores=padded[1])

    @classmethod
    def zero(cls) -> "Resources":
        return cls(0.0, 0.0)

    def __iter__(self) -> Iterator[float]:
        yield self.memory
        yield self.vcores

    def __repr__(self) -> str:
        return f"Resources(mem={self.memory:g}, vcores={self.vcores:g})"
