module dsidx/bench

go 1.24

require dsidx v0.0.0

replace dsidx => ..
