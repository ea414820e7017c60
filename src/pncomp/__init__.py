"""Time-domain phase-noise compensation for OFDM systems.

Submodules:
  numerics     complex linear-algebra kernel (unitary FFT, eig, SVD, pinv)
  ofdm         constellations, tone layout, random symbols, EVM/SER
  channel      circulant multipath channels and AWGN
  phase_noise  filtered-Gaussian phase noise, covariance, carrier offset
  basis        KL / DFT / DCT compensation bases
  compensator  LS/TLS fit per symbol block, correction and equalization
  mimo         multiuser uplink extension with ZF beamforming
  tracker      decision-directed PAST subspace tracking
  harness      experiment sweeps, configuration and the CLI
"""

__version__ = "0.1.0"
