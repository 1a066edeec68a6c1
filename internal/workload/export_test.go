package workload

// RaceEnabled exposes raceEnabled to the package's external tests.
const RaceEnabled = raceEnabled
