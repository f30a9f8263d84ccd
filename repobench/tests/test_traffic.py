"""The serve traffic is a pure function of the seed."""

from traffic import CHECK_USERS, NUM_USERS, expected_lengths, make_plan
from traffic import sent_histories

HISTORIES = {user: [[1 + (user + step) % 50] for step in range(1 + user % 7)]
             for user in range(200)}


def plan(seed, seconds=2.0):
    return make_plan(seed, seconds, 100.0, HISTORIES, max_history=4)


def requests(p, phase):
    return [request for lane in p.lanes for request in lane[phase]]


def test_same_seed_same_traffic():
    assert plan(7) == plan(7)


def test_other_seed_other_traffic():
    assert plan(7).users != plan(8).users
    assert requests(plan(7), "measure") != requests(plan(8), "measure")


def test_open_loop_schedule_and_reads_follow_writes():
    p = plan(3)
    measure = sorted(requests(p, "measure"), key=lambda r: r.due)
    assert len(measure) == 200
    assert [r.endpoint for r in measure[:4]] == ["events", "recommend"] * 2
    for event, recommend in zip(measure[::2], measure[1::2]):
        assert recommend.user_id == event.user_id
        assert abs(recommend.due - event.due - 0.01) < 1e-12


def test_each_user_belongs_to_one_lane():
    p = plan(5)
    owners = {}
    for index, lane in enumerate(p.lanes):
        for phase in ("preload", "measure", "check"):
            for request in lane[phase]:
                assert owners.setdefault(request.user_id, index) == index
    assert len(p.users) == NUM_USERS and len(p.check_users) == CHECK_USERS


def test_expected_session_lengths_are_capped_counts():
    p = plan(9)
    expected = expected_lengths(p)
    sent = sent_histories(p)
    for (lane, phase, position), length in expected.items():
        request = p.lanes[lane][phase][position]
        assert request.endpoint == "events"
        assert 1 <= length <= p.max_history
    # The last reply of each user reports all events sent, capped.
    last = {}
    for (lane, phase, position), length in sorted(
            expected.items(), key=lambda kv: (kv[0][0],
                                              kv[0][1] != "preload",
                                              kv[0][2])):
        last[p.lanes[lane][phase][position].user_id] = length
    for user, events in sent.items():
        assert last[user] == min(len(events), p.max_history)
