"""The content profile: what the sender can deliver.

Section 3: the content profile carries "storage features, variants, author
and production, usage, and many other metadata" (the MPEG-7 stand-in).  For
the algorithms, the load-bearing part is the list of
:class:`~repro.formats.variants.ContentVariant` objects — Section 4.2 wires
"each output link of the sender vertex ... to one variant with a certain
format".
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ValidationError
from repro.formats.variants import ContentVariant
from repro.services.descriptor import ServiceDescriptor, ServiceKind

__all__ = ["ContentProfile"]


class ContentProfile:
    """Descriptive profile of one content item and its stored variants."""

    def __init__(
        self,
        content_id: str,
        variants: Sequence[ContentVariant],
        title: str = "",
        author: str = "",
        metadata: Optional[Mapping[str, str]] = None,
    ) -> None:
        if not content_id:
            raise ValidationError("content_id must be non-empty")
        if not variants:
            raise ValidationError("a content profile needs at least one variant")
        names = [v.format.name for v in variants]
        if len(set(names)) != len(names):
            raise ValidationError(
                "content variants must have pairwise distinct formats"
            )
        self.content_id = content_id
        self.title = title or content_id
        self.author = author
        self.metadata: Dict[str, str] = dict(metadata or {})
        self._variants: Dict[str, ContentVariant] = {
            v.format.name: v for v in variants
        }

    # ------------------------------------------------------------------
    # Variants
    # ------------------------------------------------------------------
    @property
    def variants(self) -> List[ContentVariant]:
        return list(self._variants.values())

    def variant_for(self, format_name: str) -> ContentVariant:
        """The stored variant encoded in ``format_name``."""
        try:
            return self._variants[format_name]
        except KeyError:
            raise ValidationError(
                f"content {self.content_id!r} has no variant in format "
                f"{format_name!r} (has: {sorted(self._variants)})"
            ) from None

    def format_names(self) -> List[str]:
        """The sender's output link labels (one per variant)."""
        return list(self._variants)

    # ------------------------------------------------------------------
    # Identity (plan-cache fingerprints)
    # ------------------------------------------------------------------
    def cache_key(self) -> Tuple:
        """A stable, hashable tuple covering every field of the profile."""
        return (
            self.content_id,
            self.title,
            self.author,
            tuple(sorted(self.metadata.items())),
            tuple(v.cache_key() for v in self._variants.values()),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ContentProfile):
            return NotImplemented
        return self.cache_key() == other.cache_key()

    def __hash__(self) -> int:
        return hash(self.cache_key())

    # ------------------------------------------------------------------
    # Graph integration
    # ------------------------------------------------------------------
    def sender_descriptor(self, service_id: str = "sender") -> ServiceDescriptor:
        """The sender pseudo-vertex of Section 4.2.

        Output links are exactly the variant formats; the sender has no
        input links and performs no transcoding, so it carries no caps (its
        quality limits live in each variant's configuration).
        """
        return ServiceDescriptor(
            service_id=service_id,
            output_formats=tuple(self._variants),
            kind=ServiceKind.SENDER,
            description=f"content source for {self.content_id!r}",
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ContentProfile({self.content_id!r}, formats={self.format_names()})"
