package main

// Example runs the program end to end and pins the MUD profile it
// prints. Data generation and training are seeded, so the output is
// the same on every run.
func Example() {
	main()
	// Output:
	// {
	//   "ietf-mud:mud": {
	//     "mud-version": 1,
	//     "mud-url": "https://behaviot.invalid/mud/tplink-plug.json",
	//     "last-update": "2021-08-01T00:00:00Z",
	//     "cache-validity": 48,
	//     "is-supported": true,
	//     "systeminfo": "TP-Link TPLink Plug (BehavIoT-generated)",
	//     "from-device-policy": {
	//       "access-lists": {
	//         "access-list": [
	//           {
	//             "name": "tplink-plug-from-device"
	//           }
	//         ]
	//       }
	//     },
	//     "to-device-policy": {
	//       "access-lists": {
	//         "access-list": [
	//           {
	//             "name": "tplink-plug-from-device"
	//           }
	//         ]
	//       }
	//     },
	//     "extensions": [
	//       "behaviot-periodicity"
	//     ]
	//   },
	//   "ietf-access-control-list:acls": {
	//     "acl": [
	//       {
	//         "name": "tplink-plug-from-device",
	//         "type": "ipv4-acl-type",
	//         "aces": {
	//           "ace": [
	//             {
	//               "name": "ace-0-0-openwrt-pool-ntp-org",
	//               "matches": {
	//                 "ipv4": {
	//                   "ietf-acldns:dst-dnsname": "0.openwrt.pool.ntp.org",
	//                   "protocol": 17
	//                 },
	//                 "udp": {
	//                   "destination-port": {
	//                     "operator": "eq",
	//                     "port": 123
	//                   }
	//                 }
	//               },
	//               "actions": {
	//                 "forwarding": "accept"
	//               },
	//               "behaviot-periodicity:period-seconds": 3610.491789244137
	//             },
	//             {
	//               "name": "ace-1-api-tplinkra-com",
	//               "matches": {
	//                 "ipv4": {
	//                   "ietf-acldns:dst-dnsname": "api.tplinkra.com",
	//                   "protocol": 6
	//                 },
	//                 "tcp": {
	//                   "destination-port": {
	//                     "operator": "eq",
	//                     "port": 443
	//                   }
	//                 }
	//               },
	//               "actions": {
	//                 "forwarding": "accept"
	//               }
	//             },
	//             {
	//               "name": "ace-2-deventry-tplinkcloud-com",
	//               "matches": {
	//                 "ipv4": {
	//                   "ietf-acldns:dst-dnsname": "deventry.tplinkcloud.com",
	//                   "protocol": 6
	//                 },
	//                 "tcp": {
	//                   "destination-port": {
	//                     "operator": "eq",
	//                     "port": 443
	//                   }
	//                 }
	//               },
	//               "actions": {
	//                 "forwarding": "accept"
	//               }
	//             },
	//             {
	//               "name": "ace-3-devs-tplinkcloud-com",
	//               "matches": {
	//                 "ipv4": {
	//                   "ietf-acldns:dst-dnsname": "devs.tplinkcloud.com",
	//                   "protocol": 6
	//                 },
	//                 "tcp": {
	//                   "destination-port": {
	//                     "operator": "eq",
	//                     "port": 443
	//                   }
	//                 }
	//               },
	//               "actions": {
	//                 "forwarding": "accept"
	//               },
	//               "behaviot-periodicity:period-seconds": 235.6131421794962
	//             },
	//             {
	//               "name": "ace-4-dns1-testbed-neu-edu",
	//               "matches": {
	//                 "ipv4": {
	//                   "ietf-acldns:dst-dnsname": "dns1.testbed.neu.edu",
	//                   "protocol": 17
	//                 },
	//                 "udp": {
	//                   "destination-port": {
	//                     "operator": "eq",
	//                     "port": 53
	//                   }
	//                 }
	//               },
	//               "actions": {
	//                 "forwarding": "accept"
	//               },
	//               "behaviot-periodicity:period-seconds": 3617.587402816207
	//             }
	//           ]
	//         }
	//       }
	//     ]
	//   }
	// }
}
