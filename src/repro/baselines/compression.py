"""Compressed far memory (zswap-style) with remote replication.

Models the §2.3 alternative: pages are compressed, then the compressed
copy is replicated to two remote machines for resilience. Latency gains
from moving fewer bytes are more than offset by (de)compression on the
critical path — the paper measures "more than 10 µs" for a 4 KB remote
page, which is where this backend lands.

Compression itself is *simulated* (latency constants and a configurable
ratio) because the test payloads are incompressible random bytes; the
stored payload keeps the original content so reads stay verifiable, while
the RDMA verbs move only ``ratio x page_size`` bytes.
"""

from __future__ import annotations

from typing import Optional

from ..obs import Span
from .replication import ReplicationBackend

__all__ = ["CompressedReplicationBackend"]


class CompressedReplicationBackend(ReplicationBackend):
    """Compress, then 2x-replicate the compressed page."""

    name = "compressed"

    def __init__(
        self,
        *args,
        compression_ratio: float = 0.67,
        compress_latency_us: float = 3.0,
        decompress_latency_us: float = 6.0,
        **kwargs,
    ):
        super().__init__(*args, **kwargs)
        if not 0 < compression_ratio <= 1:
            raise ValueError(f"ratio must be in (0, 1], got {compression_ratio}")
        self.compression_ratio = compression_ratio
        self.compress_latency_us = self._write_stage_us = compress_latency_us
        self.decompress_latency_us = self._read_stage_us = decompress_latency_us

    @property
    def memory_overhead(self) -> float:
        return self.copies * self.compression_ratio

    @property
    def wire_bytes(self) -> int:
        """Verbs move the compressed page."""
        return max(1, int(self.config.page_size * self.compression_ratio))

    def _write_process(self, page_id: int, data: Optional[bytes], span: Optional[Span] = None):
        # Compression sits on the critical path before any byte moves.
        yield self.sim.timeout(self.compress_latency_us)
        self.tracer.phases(span).mark("compress")
        return (yield from super()._write_process(page_id, data, span))

    def _read_process(self, page_id: int, span: Optional[Span] = None):
        payload = yield from super()._read_process(page_id, span)
        if payload is not None or self.payload_mode == "phantom":
            yield self.sim.timeout(self.decompress_latency_us)
            self.tracer.phases(span).mark("decompress")
        return payload
