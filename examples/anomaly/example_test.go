package main

// Example runs the program end to end and pins the deviations it
// reports for each scenario day, section by section in metric order.
// Data generation and training are seeded, so the output is the same
// on every run.
func Example() {
	main()
	// Output:
	// === normal day ===
	// 33393 flows, 2 deviations
	//   short-term: 1
	//     score=8.52 device=Gosund Bulb Gosund Bulb:color
	//   long-term: 1
	//     score=9.55 device=INITIAL→Gosund Bulb INITIAL → Gosund Bulb:color
	//
	// === SwitchBot Hub malfunction (6h offline) ===
	// 32617 flows, 6 deviations
	//   periodic-event: 5
	//     score=6.57 device=SwitchBot Hub TCP-api.switch-bot.com-30
	//     score=3.22 device=SwitchBot Hub UDP-broker.emqx-cloud.io-901
	//     score=1.94 device=SwitchBot Hub DNS-dns1.testbed.neu.edu-3612
	//     ... and 2 more
	//   short-term: 1
	//     score=8.52 device=Gosund Bulb Gosund Bulb:color
	//
	// === Echo Spot misactivation storm ===
	// 33436 flows, 3 deviations
	//   short-term: 1
	//     score=164.77 device=Echo Spot Echo Spot:voice → Echo Spot:voice → Echo Spot:voice → Echo Spot:voice → Echo Spot:voice → Echo Spot:voice → Echo Spot:voice → Echo Spot:voice → … (42 more)
	//   long-term: 2
	//     score=124.63 device=Echo Spot→Echo Spot Echo Spot:voice → Echo Spot:voice
	//     score=4.84 device=Echo Spot→TERMINAL Echo Spot:voice → TERMINAL
}
