"""The context profile: the user's dynamic situation.

Section 3: "A context profile would include any dynamic information that is
part of the context or current status of the user ... physical (e.g.
location, weather, temperature), social (e.g. sitting for dinner), or
organizational information (e.g. acting senior manager)", mirroring the
MPEG-21 usage-environment tools (location, time, audio and illumination
characteristics).

Besides carrying the raw facts, the profile derives the algorithm-facing
**parameter caps**, the way a real adaptation engine would: e.g. a
"driving" activity caps video frame rate to zero (eyes on the road), a
dark environment caps useful color depth.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

from repro.core.parameters import AUDIO_QUALITY, COLOR_DEPTH, FRAME_RATE
from repro.errors import ValidationError

__all__ = ["ContextProfile"]


class ContextProfile:
    """Dynamic physical / social / organizational context of the user."""

    #: Activities with built-in adaptation consequences.
    KNOWN_ACTIVITIES = ("idle", "walking", "driving", "meeting", "dinner")

    def __init__(
        self,
        location: str = "",
        activity: str = "idle",
        noise_level_db: float = 40.0,
        illumination_lux: float = 300.0,
        local_time_hour: Optional[int] = None,
        organizational_role: str = "",
        attributes: Optional[Mapping[str, str]] = None,
    ) -> None:
        if activity not in self.KNOWN_ACTIVITIES:
            raise ValidationError(
                f"unknown activity {activity!r}; expected one of "
                f"{self.KNOWN_ACTIVITIES}"
            )
        if noise_level_db < 0:
            raise ValidationError("noise level must be >= 0 dB")
        if illumination_lux < 0:
            raise ValidationError("illumination must be >= 0 lux")
        if local_time_hour is not None and not 0 <= local_time_hour <= 23:
            raise ValidationError("local_time_hour must lie in 0..23")
        self.location = location
        self.activity = activity
        self.noise_level_db = noise_level_db
        self.illumination_lux = illumination_lux
        self.local_time_hour = local_time_hour
        self.organizational_role = organizational_role
        self.attributes: Dict[str, str] = dict(attributes or {})

    # ------------------------------------------------------------------
    # Identity (plan-cache fingerprints)
    # ------------------------------------------------------------------
    def cache_key(self) -> Tuple:
        """A stable, hashable tuple covering every field of the profile."""
        return (
            self.location,
            self.activity,
            self.noise_level_db,
            self.illumination_lux,
            self.local_time_hour,
            self.organizational_role,
            tuple(sorted(self.attributes.items())),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ContextProfile):
            return NotImplemented
        return self.cache_key() == other.cache_key()

    def __hash__(self) -> int:
        return hash(self.cache_key())

    # ------------------------------------------------------------------
    # Algorithm-facing derivations
    # ------------------------------------------------------------------
    def parameter_caps(self) -> Dict[str, float]:
        """Hard parameter limits implied by the context.

        - driving: no video at all (frame rate capped to 0);
        - meeting / dinner: audio muted (audio quality capped to 0);
        - very dark environments (< 5 lux): color depth capped to 8 bits —
          deep color is imperceptible on a dim screen.
        """
        caps: Dict[str, float] = {}
        if self.activity == "driving":
            caps[FRAME_RATE] = 0.0
        if self.activity in ("meeting", "dinner"):
            caps[AUDIO_QUALITY] = 0.0
        if self.illumination_lux < 5.0:
            caps[COLOR_DEPTH] = 8.0
        return caps

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ContextProfile(activity={self.activity!r}, "
            f"location={self.location!r}, noise={self.noise_level_db}dB)"
        )
