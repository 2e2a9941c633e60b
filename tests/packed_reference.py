"""The per-operation packed loop: the reference the fused engine must match.

Drives a :class:`~repro.stabilizer.packed.PackedBatchTableau` one compiled
operation at a time through its word-level gate, measurement and Pauli
injection methods, drawing noise through the packed noise hooks.  Per
operation it draws movement noise, then (inside the measurement) the random
outcome words, then the gate / preparation / measurement-flip noise -- the
RNG order :func:`repro.stabilizer.fused.execute_fused` pre-samples in, so on
the same seeds the two produce bit-identical outcomes, error counts and final
states.  It is slow and exists only for that comparison.
"""

from __future__ import annotations

import numpy as np

from repro.arq.simulator import BatchExecutionResult
from repro.circuits import Circuit
from repro.circuits.compiled import CompiledCircuit, Opcode, compile_circuit
from repro.stabilizer import NoiselessModel, PackedBatchTableau, unpack_bits

_ONE_QUBIT_GATES = {
    Opcode.H: "h",
    Opcode.S: "s",
    Opcode.SDG: "s_dag",
    Opcode.X: "x",
    Opcode.Y: "y",
    Opcode.Z: "z",
}
_TWO_QUBIT_GATES = {Opcode.CNOT: "cnot", Opcode.CZ: "cz", Opcode.SWAP: "swap"}


def run_packed_reference(
    circuit: Circuit | CompiledCircuit,
    batch_size: int,
    rng: np.random.Generator,
    noise=None,
    mapper=None,
    tableau: PackedBatchTableau | None = None,
) -> BatchExecutionResult:
    """Run ``batch_size`` noisy shots of a circuit one operation at a time."""
    program = circuit if isinstance(circuit, CompiledCircuit) else compile_circuit(
        circuit, mapper=mapper
    )
    noise = noise if noise is not None else NoiselessModel()
    state = tableau if tableau is not None else PackedBatchTableau(
        program.num_qubits, batch_size, rng=rng
    )
    noiseless = noise.is_noiseless
    error_count = np.zeros(batch_size, dtype=np.int64)
    outcome_words = np.zeros((program.num_measurements, state.num_lane_words), dtype=np.uint64)

    def inject(sampled) -> None:
        support, x_words, z_words, event_words = sampled
        if event_words.any():
            state.inject_pauli_words(support, x_words, z_words)
            error_count[:] += unpack_bits(event_words, batch_size)

    for k in range(program.num_operations):
        op = Opcode(int(program.opcodes[k]))
        q0 = int(program.qubit0[k])
        q1 = int(program.qubit1[k])
        exposure = int(program.movement_exposure[k])
        if not noiseless and exposure > 0:
            inject(noise.sample_movement_error_packed(
                int(program.moved_qubit[k]), exposure, batch_size, rng
            ))
        if op == Opcode.PREPARE:
            state.reset(q0)
            if not noiseless:
                inject(noise.sample_preparation_error_packed(q0, batch_size, rng))
        elif op in (Opcode.MEASURE, Opcode.MEASURE_X):
            measured = state.measure_packed(q0) if op == Opcode.MEASURE else state.measure_x_packed(q0)
            if not noiseless:
                flip_words = noise.measurement_flip_packed(batch_size, rng)
                if flip_words.any():
                    measured = measured ^ flip_words
                    error_count += unpack_bits(flip_words, batch_size)
            outcome_words[int(program.measurement_slot[k])] = measured
        else:
            if op in _ONE_QUBIT_GATES:
                getattr(state, _ONE_QUBIT_GATES[op])(q0)
            elif op in _TWO_QUBIT_GATES:
                getattr(state, _TWO_QUBIT_GATES[op])(q0, q1)
            # Opcode.I changes no state, but gate noise still applies below.
            if not noiseless:
                operands = (q0,) if q1 < 0 else (q0, q1)
                inject(noise.sample_gate_error_packed(op.name, operands, batch_size, rng))

    measurements = {
        label: unpack_bits(outcome_words[slot], batch_size)
        for slot, label in enumerate(program.measurement_labels)
    }
    return BatchExecutionResult(tableau=state, measurements=measurements, error_count=error_count)
