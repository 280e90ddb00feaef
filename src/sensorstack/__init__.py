"""Services for multimodal streetscape sensing.

Subpackages:

* ``timebase``: clock correction, drift estimation, jitter buffering.
* ``eventsync``: gesture-event detection and cross-stream time alignment.
* ``fusion``: perspective transforms and cross-camera detection merging.
* ``edgesched``: decay-priority task scheduling and its simulator.
* ``services``: device registry, tokens, actions, capture.
"""

__version__ = "0.1.0"
