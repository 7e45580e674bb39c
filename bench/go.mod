module pphcr/bench

go 1.24

require pphcr v0.0.0

replace pphcr => ../
