package sim

// RaceEnabled exposes raceEnabled to the external sim_test package.
const RaceEnabled = raceEnabled
