"""Flash device timing parameters.

``MSR_SSD_PARAMS`` reproduces the figure the paper quotes from the
Microsoft Research DiskSim SSD extension: *"a single read request (one
block = 8 KB) takes 0.132507 milliseconds"*.  That figure decomposes
(per Agrawal et al., USENIX ATC'08) into flash page read, ECC, and
serial transfer over the flash bus; we keep the decomposition so the
ablation experiments can vary the components, while the headline sum
matches the paper's constant exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["FlashParams", "MSR_SSD_PARAMS"]


@dataclass(frozen=True)
class FlashParams:
    """Timing of one flash module.

    All times in milliseconds; every time must be finite and
    ``>= 0``.  One request moves one 8 KB block.

    Attributes
    ----------
    page_read_ms:
        NAND array-to-register read time for one page stack.
    transfer_ms:
        Bus transfer time for one 8 KB block (incl. ECC pipeline).
    page_program_ms:
        Program (write) time of one block.
    """

    page_read_ms: float = 0.025
    transfer_ms: float = 0.107507
    page_program_ms: float = 0.2

    def __post_init__(self):
        for name in ("page_read_ms", "transfer_ms", "page_program_ms"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            if value < 0:
                raise ValueError(f"{name} must be >= 0")

    @property
    def read_ms(self) -> float:
        """End-to-end service time of one block read."""
        return self.page_read_ms + self.transfer_ms

    @property
    def write_ms(self) -> float:
        """End-to-end service time of one block program."""
        return self.page_program_ms + self.transfer_ms

    def service_ms(self, is_read: bool) -> float:
        """Service time of one block request."""
        return self.read_ms if is_read else self.write_ms


#: The paper's simulator parameters: 8 KB read = 0.132507 ms.
MSR_SSD_PARAMS = FlashParams()

assert abs(MSR_SSD_PARAMS.read_ms - 0.132507) < 1e-12, \
    "MSR read latency must equal the paper's 0.132507 ms"
