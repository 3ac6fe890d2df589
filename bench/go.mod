module eccheck/bench

go 1.22

require eccheck v0.0.0

replace eccheck => ../
