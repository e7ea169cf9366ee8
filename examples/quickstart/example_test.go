package main

// Example runs the program end to end and pins the periodic models,
// user events and event partition it prints. Data generation and
// training are seeded, so the output is the same on every run.
func Example() {
	main()
	// Output:
	// Learned periodic models:
	//   Echo Spot          DNS-dns1.testbed.neu.edu-3616
	//   Echo Spot          NTP-0.de.pool.ntp.org-3612
	//   Echo Spot          TCP-a1x3c4.iot.us-east-1.amazonaws.com-901
	//   Echo Spot          TCP-alexa.na.gateway.devices.a2z.com-61
	//   Echo Spot          TCP-api.amazon.com-61
	//   Echo Spot          TCP-api.amazonalexa.com-452
	//   Echo Spot          TCP-arcus-uswest.amazon.com-61
	//   Echo Spot          TCP-completion.amazon.com-30
	//   Echo Spot          TCP-d3p8zr0ffa9t17.cloudfront.net-30
	//   Echo Spot          TCP-dcape-na.amazon.com-59
	//   Echo Spot          TCP-device-messaging-na.amazon.com-30
	//   Echo Spot          TCP-device-metrics-us.amazon.com-901
	//   Echo Spot          TCP-dp-gw-na.amazon.com-30
	//   Echo Spot          TCP-fireoscaptiveportal.com-452
	//   Echo Spot          TCP-images-na.ssl-images-amazon.com-599
	//   Echo Spot          TCP-iot.eclipse-proj.org-300
	//   Echo Spot          TCP-kindle-time.amazon.com-87
	//   Echo Spot          TCP-latinum.amazon.com-87
	//   Echo Spot          TCP-mas-sdk.amazon.com-120
	//   Echo Spot          TCP-prime.amazon.com-452
	//   Echo Spot          TCP-softwareupdates.amazon.com-1806
	//   Echo Spot          TCP-todo-ta-g7g.amazon.com-300
	//   Echo Spot          TCP-wl.amazon-dss.com-1806
	//   Echo Spot          UDP-avs-alexa-na.amazon.com-87
	//   Echo Spot          UDP-e5a1.akamaiedge.net-901
	//   Echo Spot          UDP-prod.amazoncrl.com-87
	//   Echo Spot          UDP-unagi-na.amazon.com-120
	//   Gosund Bulb        DNS-dns1.testbed.neu.edu-3600
	//   Gosund Bulb        NTP-time.nist.gov-3581
	//   Gosund Bulb        TCP-a2.tuyaus.com-87
	//   Gosund Bulb        TCP-d1f0a.cloudfront.net-30
	//   Ring Camera        DNS-dns1.testbed.neu.edu-3612
	//   Ring Camera        NTP-cn.ntp.org.cn-3609
	//   Ring Camera        TCP-broker.emqx-cloud.io-1806
	//   Ring Camera        TCP-fw.ring.com-900
	//   Ring Camera        UDP-api.ring.com-87
	//   Ring Camera        UDP-gcp-gateway.googleusercontent.com-236
	//   TPLink Plug        DNS-dns1.testbed.neu.edu-3618
	//   TPLink Plug        NTP-0.openwrt.pool.ntp.org-3610
	//   TPLink Plug        TCP-devs.tplinkcloud.com-236
	//   Wemo Plug          DNS-dns1.testbed.neu.edu-3598
	//   Wemo Plug          NTP-time.google.com-3609
	//   Wemo Plug          TCP-api.xbcs.net-87
	//   Wemo Plug          TCP-nat.wemo2.com-300
	//   Wemo Plug          UDP-heartbeat.xwemo.com-30
	//
	// Detected user event: TPLink Plug:on at 9:00AM (confidence 1.00)
	//
	// Detected user event: TPLink Plug:off at 11:00AM (confidence 0.98)
	//
	// Event partition: 34513 periodic (99.98%), 2 user, 5 aperiodic
	// (the paper finds ~97.8% of IoT traffic is periodic background)
}
