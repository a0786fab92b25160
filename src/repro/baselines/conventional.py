"""The modified conventional synthesis method (paper Sec. 5).

The paper compares against a conventional synthesizer upgraded just enough
to run the same benchmarks: operations and devices are classified by
component-requirement *signature* (instead of the obsolete functional
types), binding requires exact signature matches, and the layering +
progressive re-synthesis machinery is integrated as-is.  Everything else —
the ILP, the transport estimation, the objective — is shared with the
component-oriented method, so measured differences are attributable to the
binding concept alone.
"""

from __future__ import annotations

import dataclasses
import time

from ..devices.device import BindingMode
from ..hls.context import SynthesisContext
from ..hls.pipeline import SynthesisPipeline
from ..hls.spec import SynthesisSpec
from ..hls.synthesizer import SynthesisResult
from ..operations.assay import Assay


def conventional_spec(spec: SynthesisSpec) -> SynthesisSpec:
    """A copy of ``spec`` with the baseline's exact-matching binding rule."""
    return dataclasses.replace(spec, binding_mode=BindingMode.EXACT)


def synthesize_conventional(
    assay: Assay, spec: SynthesisSpec | None = None
) -> SynthesisResult:
    """Synthesize ``assay`` with the modified conventional method.

    Runs the *same* :class:`~repro.hls.pipeline.SynthesisPipeline` as
    :func:`repro.hls.synthesizer.synthesize` — no forked pass loop.  The
    only behavioral difference is the binding-legality predicate installed
    by :func:`conventional_spec` (exact signature matches instead of
    component cover), which every stage picks up through the shared
    context's spec.
    """
    spec = spec or SynthesisSpec()
    context = SynthesisContext(
        assay=assay,
        spec=conventional_spec(spec),
        started=time.monotonic(),
    )
    return SynthesisPipeline().run(context)
