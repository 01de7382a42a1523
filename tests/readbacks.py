"""Reference readbacks for tests: whole streams, rebuilt models.

``harness._apply_schemes`` returns only the touched blocks' words; tests
that compare whole streams scatter them into a copy of the fault-free one.
:func:`reference_error` rebuilds the model from a whole stream and runs
:func:`craft.nn.accuracy` on it, the oracle for ``harness._Readbacks``.
"""

import numpy as np

from craft.harness import _apply_schemes
from craft.nn import QuantizedModel, accuracy, dequantize
from craft.weightfile import unflatten_model


def scheme_readbacks(blocks, layout, schemes, fault_map):
    """Each scheme's (readback stream, total deviation), in order."""
    touched, found = _apply_schemes(blocks, layout, schemes, fault_map)
    results = []
    for out, total in found:
        read = blocks.copy()
        read[touched] = out
        results.append((read, total))
    return results


def reference_error(blocks, layout, dataset):
    """Test error of the model rebuilt from a whole block stream."""
    rebuilt = unflatten_model(blocks, layout)
    # u8 codes under a scale near the float32 limit dequantize past it
    with np.errstate(over="ignore"):
        return 1.0 - accuracy(rebuilt, dataset.test_inputs, dataset.test_labels)


def float64_weights(blocks, layout):
    """The float64 weight matrices inference runs on for a block stream."""
    model = unflatten_model(blocks, layout)
    with np.errstate(invalid="ignore", over="ignore"):
        if isinstance(model, QuantizedModel):
            model = dequantize(model)
        return [w.astype(np.float64) for w in model.weights]


def weights_differ(read, blocks, layout):
    """Whether a readback's float64 weights differ bit for bit from the
    fault-free stream's."""
    return any(a.tobytes() != b.tobytes() for a, b in
               zip(float64_weights(read, layout), float64_weights(blocks, layout)))
