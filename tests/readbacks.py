"""Full readback streams of the harness's scheme application, for tests.

``harness._apply_schemes`` returns only the touched blocks' words; tests
that compare whole streams scatter them into a copy of the fault-free one.
"""

from craft.harness import _apply_schemes


def scheme_readbacks(blocks, layout, schemes, fault_map):
    """Each scheme's (readback stream, total deviation), in order."""
    touched, found = _apply_schemes(blocks, layout, schemes, fault_map)
    results = []
    for out, total in found:
        read = blocks.copy()
        read[touched] = out
        results.append((read, total))
    return results
