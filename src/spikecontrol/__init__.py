"""Recurrent spiking networks, built in closed form, that estimate and control
linear plants: a greedy spike rule plus analytically derived connectivity make
the population's linear readout track a Kalman filter / LQG controller."""

from .state_space import LinearSystem, NoiseSource, StreamLabel, make_rng
from .riccati import LqrCost, CareSolution, solve_care, lqr_gain, kalman_gain
from .plants import (SmdParams, CartpoleParams, PulseSchedule, CARTPOLE_UP,
                     smd_system, cartpole_dynamics, cartpole_linearize_up)
from .scn import (DecoderMatrix, ScnWeights, ScnState, NetworkDivergedError,
                  sample_decoder, build_autoencoder, build_estimator,
                  build_controller, new_state, network_step, silence,
                  save_weights, load_weights)
from .lqg import LqgState, estimator_step, lqg_step
from .experiments import (Scenario, ReferenceSchedule, Trajectory, SweepResult,
                          PoleDroppedError, stair_reference, estimation_scenario,
                          smd_control_scenario, robustness_scenario,
                          cartpole_scenario, sparsity_scenario, build_network,
                          run_estimation, run_control, run_cartpole, run_sparsity,
                          run_robustness_sweep, summarize, write_trajectory,
                          write_spikes, write_summary, write_sweep_matrix)
from .config import ConfigError, parse_config, load_config, apply_config
