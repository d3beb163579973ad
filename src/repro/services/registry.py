"""A minimal service registry.

Stand-in for the semantic service-discovery layer the paper cites
(Feta, [17]): enough structure for workflows to resolve services by
name and for users to search by port signature, without pretending to
do ontology reasoning.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

from repro.services.base import Service

__all__ = ["ServiceRegistry", "ServiceEntry"]


@dataclass
class ServiceEntry:
    """A registered service plus free-form metadata."""

    service: Service
    description: str = ""
    tags: Mapping[str, str] = field(default_factory=dict)


class ServiceRegistry:
    """Name-indexed catalog of available application services."""

    def __init__(self) -> None:
        self._entries: Dict[str, ServiceEntry] = {}

    def register(
        self,
        service: Service,
        description: str = "",
        tags: Optional[Mapping[str, str]] = None,
    ) -> None:
        """Add *service*; re-registering the same name is an error."""
        if service.name in self._entries:
            raise ValueError(f"service {service.name!r} already registered")
        self._entries[service.name] = ServiceEntry(
            service=service, description=description, tags=dict(tags or {})
        )

    def resolve(self, name: str) -> Service:
        """Return the service registered under *name*."""
        try:
            return self._entries[name].service
        except KeyError:
            raise KeyError(f"no service named {name!r} in registry") from None

    def names(self) -> List[str]:
        """All registered names, sorted."""
        return sorted(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._entries
