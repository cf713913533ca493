type t = { move_prob : float }

let default = { move_prob = 1e-4 }

let sample_next t world rng loc =
  if Rfid_prob.Rng.bernoulli rng ~p:t.move_prob then World.sample_on_shelves world rng
  else loc
