"""Sequential maximum-confidence discrimination of quantum states.

The package answers three questions about an ensemble of quantum states:

* what is the largest confidence with which each state can be identified,
  and which measurement achieves it (:mod:`seqmcm.mcm`);
* how little of the measurement's strength must be spent — weakened
  measurements, inconclusive-rate and guessing-probability optimization
  (:mod:`seqmcm.optim`);
* how the ensemble degrades when several parties measure one after the
  other, each receiving the previous party's post-measurement states
  (:mod:`seqmcm.seqchan`).

:mod:`seqmcm.families` packages four qubit families whose chains have
closed forms; :mod:`seqmcm.cli` exposes everything as a command line.
Nothing is re-exported: ``from seqmcm import qcore, mcm, optim, seqchan, families``.

Conventions: labels are 1..N with 0 reserved for inconclusive outcomes;
angles are radians; ``trace_norm`` carries no 1/2 factor;
confidences are probabilities, min-entropies are bits.
"""

__version__ = "0.1.0"
