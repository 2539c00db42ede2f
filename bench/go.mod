module honestplayer/bench

go 1.22

require honestplayer v0.0.0

replace honestplayer => ../
