"""Reference kernels that measure how fast the machine is running right now.

On a shared host the speed of one CPU moves by half again from second to
second as other tenants come and go, so a raw time says as much about
them as about the code. The benchmark therefore runs two fixed kernels
between CLI invocations, outside the timed region, and divides each
invocation's time by the kernels' time measured next to it:

* ``interpreter``: JSON round trip, string keys, dict and sort work on a
  small task-like document, as the CLI's own Python code does.
* ``dense``: three min-plus relaxation steps on a 400 x 400 float
  matrix, as ``madtn.stn.solve`` does. The matrix is relaxed in place run
  after run; its entries stay finite, so every run does the same work.

The kernels use only the standard library and numpy, never ``madtn``, so
a change to the package cannot move them. They take about 0.6 ms and 1 ms.
"""
from __future__ import annotations

import json
from time import perf_counter

import numpy as np

DOCUMENT = {
    "petals": [
        {"name": f"P{i:02d}",
         "actions": [{"name": f"a{j}", "lower": i * 0.5 + j, "upper": i + j * 1.5}
                     for j in range(4)]}
        for i in range(12)
    ]
}
#: Repeats of the interpreter body per kernel run.
INTERPRETER_REPEATS = 3
#: Matrix side and relaxation steps of the dense kernel.
DENSE_SIDE = 400
DENSE_STEPS = 3


class Kernels:
    """The two reference kernels, with the dense kernel's matrix."""

    def __init__(self):
        self.matrix = np.random.default_rng(0).uniform(0.0, 10.0, (DENSE_SIDE, DENSE_SIDE))

    def interpreter(self) -> None:
        for _ in range(INTERPRETER_REPEATS):
            doc = json.loads(json.dumps(DOCUMENT))
            index = {}
            for petal in doc["petals"]:
                for action in petal["actions"]:
                    index[f"{petal['name']}.{action['name']}.start"] = action["lower"]
                    index[f"{petal['name']}.{action['name']}.end"] = action["upper"]
            sorted(index.items(), key=lambda item: item[1])

    def dense(self) -> None:
        matrix = self.matrix
        for k in range(DENSE_STEPS):
            np.minimum(matrix, matrix[:, k : k + 1] + matrix[k : k + 1, :], out=matrix)

    def measure(self) -> tuple[float, float]:
        """Wall time of one run of each kernel: ``(interpreter, dense)``."""
        began = perf_counter()
        self.interpreter()
        middle = perf_counter()
        self.dense()
        return middle - began, perf_counter() - middle
