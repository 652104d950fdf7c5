"""Name-indexed registry of media formats.

The registry is the single source of truth for format identity within a
scenario: profiles, service descriptors, and graph edges all refer to
formats by name and resolve them here.  Two formats are "the same" for the
purposes of edge matching (Section 4.2 of the paper) iff their names are
equal.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional

from repro.errors import UnknownFormatError, ValidationError
from repro.formats.format import MediaFormat, MediaType

__all__ = ["FormatRegistry", "standard_registry"]


class FormatRegistry:
    """A mutable, name-indexed collection of :class:`MediaFormat` objects."""

    def __init__(self, formats: Iterable[MediaFormat] = ()) -> None:
        self._formats: Dict[str, MediaFormat] = {}
        for fmt in formats:
            self.register(fmt)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def register(self, fmt: MediaFormat, replace: bool = False) -> MediaFormat:
        """Add ``fmt`` to the registry and return it.

        Re-registering the *identical* format object (or an equal one) is a
        no-op; registering a different format under an existing name raises
        :class:`ValidationError` unless ``replace`` is true.
        """
        existing = self._formats.get(fmt.name)
        if existing is not None and existing != fmt and not replace:
            raise ValidationError(
                f"format {fmt.name!r} already registered with different "
                f"definition; pass replace=True to overwrite"
            )
        self._formats[fmt.name] = fmt
        return fmt

    def define(
        self,
        name: str,
        media_type: MediaType = MediaType.VIDEO,
        codec: str = "",
        container: Optional[str] = None,
        compression_ratio: float = 1.0,
    ) -> MediaFormat:
        """Create, register, and return a new format in one call."""
        fmt = MediaFormat(
            name=name,
            media_type=media_type,
            codec=codec,
            container=container,
            compression_ratio=compression_ratio,
        )
        return self.register(fmt)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def get(self, name: str) -> MediaFormat:
        """Return the format registered under ``name``.

        Raises :class:`UnknownFormatError` when absent.
        """
        try:
            return self._formats[name]
        except KeyError:
            raise UnknownFormatError(name) from None

    def __getitem__(self, name: str) -> MediaFormat:
        return self.get(name)

    def __contains__(self, name: object) -> bool:
        return name in self._formats

    def __iter__(self) -> Iterator[MediaFormat]:
        return iter(self._formats.values())

    def __len__(self) -> int:
        return len(self._formats)

    def names(self) -> List[str]:
        """All registered format names, in registration order."""
        return list(self._formats)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FormatRegistry({sorted(self._formats)})"


def standard_registry() -> FormatRegistry:
    """A registry pre-populated with common real-world formats.

    These are the formats the paper's introduction motivates (HTML→WML,
    JPEG→GIF, MPEG video at several qualities, ...).  Compression ratios are
    rough public figures; the algorithms only need them to be plausible and
    monotone.
    """
    registry = FormatRegistry()
    registry.define("raw-video", MediaType.VIDEO, codec="rawvideo", compression_ratio=1.0)
    registry.define("mpeg1-video", MediaType.VIDEO, codec="mpeg1", compression_ratio=26.0)
    registry.define("mpeg2-hq", MediaType.VIDEO, codec="mpeg2", container="ts", compression_ratio=20.0)
    registry.define("mpeg2-sd", MediaType.VIDEO, codec="mpeg2", container="ts", compression_ratio=35.0)
    registry.define("mpeg4-asp", MediaType.VIDEO, codec="mpeg4", container="mp4", compression_ratio=60.0)
    registry.define("h263-mobile", MediaType.VIDEO, codec="h263", container="3gp", compression_ratio=90.0)
    registry.define("motion-jpeg", MediaType.VIDEO, codec="mjpeg", compression_ratio=12.0)
    registry.define("pcm-audio", MediaType.AUDIO, codec="pcm")
    registry.define("cd-audio", MediaType.AUDIO, codec="pcm-cd")
    registry.define("mp3-audio", MediaType.AUDIO, codec="mp3", compression_ratio=11.0)
    registry.define("gsm-audio", MediaType.AUDIO, codec="gsm", compression_ratio=96.0)
    registry.define("jpeg-image", MediaType.IMAGE, codec="jpeg", compression_ratio=10.0)
    registry.define("gif-image", MediaType.IMAGE, codec="gif", compression_ratio=4.0)
    registry.define("png-image", MediaType.IMAGE, codec="png", compression_ratio=3.0)
    registry.define("bw-gif-image", MediaType.IMAGE, codec="gif-2color", compression_ratio=8.0)
    registry.define("html-text", MediaType.TEXT, codec="html", compression_ratio=1.0)
    registry.define("wml-text", MediaType.TEXT, codec="wml", compression_ratio=1.0)
    registry.define("plain-text", MediaType.TEXT, codec="txt", compression_ratio=1.0)
    return registry
