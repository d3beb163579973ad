"""The application-service layer.

The paper's central design choice is the **service-based approach**:
application codes are wrapped behind standard invocation interfaces and
the workflow enactor treats them as black boxes (Section 1).  This
subpackage provides:

* :mod:`~repro.services.base` — the abstract :class:`Service` contract
  plus in-memory services for tests,
* :mod:`~repro.services.descriptor` — the XML *executable descriptor*
  of Figure 8 (name/access of the executable, sandboxed files, inputs
  with command-line options, parameters, outputs),
* :mod:`~repro.services.wrapper` — the **generic wrapper service** that
  turns any descriptor + legacy program into a grid-submitting service
  (the paper's answer to "(i) an extra level of complexity on the
  application developer side"),
* :mod:`~repro.services.composite` — the **virtual grouped service**
  that composes several wrapped codes into a single grid job
  (Section 3.6, Figure 7 bottom),
* :mod:`~repro.services.batching` — a service that batches its
  invocations into one grid job (the E12 granularity study),
* :mod:`~repro.services.registry` — a minimal service-discovery
  registry (stand-in for myGrid's Feta).

The prototype spoke Web Services and GridRPC, but only their interface
semantics matter to the enactor (Section 3.1): a non-blocking call is
what the enactor's one-simulated-process-per-invocation already is, so
no transport layer is modelled.
"""

from repro.services.base import GridData, LocalService, Service, ServiceError
from repro.services.batching import BatchingService
from repro.services.composite import CompositeService
from repro.services.descriptor import (
    AccessMethod,
    ExecutableDescriptor,
    InputSpec,
    OutputSpec,
    SandboxSpec,
    descriptor_from_xml,
    descriptor_to_xml,
)
from repro.services.wrapper import GenericWrapperService

__all__ = [
    "Service",
    "ServiceError",
    "LocalService",
    "GridData",
    "GenericWrapperService",
    "CompositeService",
    "BatchingService",
    "ExecutableDescriptor",
    "AccessMethod",
    "InputSpec",
    "OutputSpec",
    "SandboxSpec",
    "descriptor_from_xml",
    "descriptor_to_xml",
]
