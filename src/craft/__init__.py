"""Stuck-at-fault tolerant storage encodings for neural-network weights.

The package models non-volatile memory with stuck-at cells, implements
reversible block encodings (slot remapping, inversion, bit switching) that
minimize net weight deviation under a given fault map, an
error-correcting-pointers baseline, and a Monte Carlo harness that sweeps
bit error rates against a small quantized MLP.
"""

from .codecs import (Precision, craft_overhead, decode_words, ecp_overhead,
                     ecp_words, encode_words, frame_stuck)
from .memory import (PAYLOAD_BITS, FaultMap, apply_stuck, generate_fault_map,
                     load_fault_map, save_fault_map, stuck_words)
from .nn import (MlpModel, QuantizedLayer, QuantizedModel, SyntheticDataset,
                 TrainingDivergedError, TrainResult, accuracy, dequantize,
                 infer, make_dataset, quantize, train)
from .objective import best_encodings, deviation_words, search_words, store_words
from .harness import (CriticalityResult, RobustnessRatio, Scheme, SweepResult,
                      ber_sweep, bit_criticality, default_ber_grid,
                      robustness_improvement, second_zero_exponent_bit)
from .weightfile import (BlockLayout, flatten_model, load_blocks, load_model,
                         load_sidecar, save_blocks, save_model, save_sidecar,
                         unflatten_model)

__version__ = "0.1.0"
