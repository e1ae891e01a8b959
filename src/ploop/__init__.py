"""ploop: a deterministic mobile-agent platform and discrete-event
simulator for closed-loop product lifecycle management.

Products carry embedded information devices and serial@uri identities;
five cooperating agent roles migrate between lifecycle nodes, feed a
knowledge repository from the extended end-of-life phase, and trigger the
next product generation early enough to shorten its launch."""
